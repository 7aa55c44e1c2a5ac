"""The fuzzer's unit of work: one complete, picklable scenario.

A :class:`ScenarioSpec` describes *everything* about one generated
simulation — machine shape, allocation scheme, workload mix, antagonist
bursts, hardware fault schedule, horizon, seed — as plain data.  It is
the fuzzing analogue of :class:`repro.api.SimulationSpec` (and lowers
onto one via :meth:`simulation_spec`): a pure description whose run is
a function of the spec alone, which is what lets campaign cells fan out
across worker processes, corpus entries replay byte-identically, and
ddmin re-run arbitrary sub-scenarios.

Its ``harness`` says who drew it: ``fuzz`` for the fuzzer's
generator, ``chaos`` for the chaos soak's plans on the fixed chaos
machine.  One runner, one shrinker and one repro-file format serve
both.

Validation is load-time, not run-time: a scenario that names an unknown
workload, points a fault at a disk the machine does not have, or puts a
workload on a mount past ``ndisks`` is rejected with a message naming
the field — never a mid-run ``KeyError``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.antagonists import ANTAGONIST_KINDS
from repro.faults.plan import DiskFailure, FaultEvent, FaultPlan, FaultPlanError

#: Scenario format tag for repro files and the corpus.
SCENARIO_FORMAT = "repro.fuzz/1"

#: Workload kinds drawn from the calibrated library.
WORKLOAD_KINDS = (
    "pmake",
    "copy",
    "ocean",
    "simulator",
    "interactive",
    "cpu_hog",
)

#: Legal machine-dimension ranges: generation draws inside them and
#: shrinking never goes below the floors.
NCPUS_RANGE = (1, 16)
MEMORY_MB_RANGE = (8, 128)
NDISKS_RANGE = (1, 4)
SCHEMES = ("smp", "quo", "piso", "stride")

#: SPU names the runner reserves for the victim and burst attacker.
RESERVED_SPUS = ("victim", "attacker")

#: Who drew the scenario.  The runner keys three things on it: the
#: burst RNG streams, the journal header and the victim-progress window.
HARNESSES = ("fuzz", "chaos")


class ScenarioError(ValueError):
    """Raised for ill-formed scenarios, with the offending field named."""


def _check_int(name: str, value: Any, lo: Optional[int] = None) -> int:
    """Reject NaN/inf/non-integers before they poison a schedule."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    if isinstance(value, float):
        if not math.isfinite(value) or value != int(value):
            raise ScenarioError(f"{name} must be a finite integer, got {value!r}")
        value = int(value)
    if lo is not None and value < lo:
        raise ScenarioError(f"{name} must be >= {lo}, got {value}")
    return value


@dataclass(frozen=True)
class AntagonistBurst:
    """Launch one antagonist at an absolute simulated time."""

    at_us: int
    kind: str
    scale: float = 1.0

    def _validate(self) -> None:
        # NaN fails every comparison, so explicit finiteness checks
        # must come before the range checks or a NaN time/scale from a
        # hand-edited repro file would slip through.
        for name, value in (("at_us", self.at_us), ("scale", self.scale)):
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                raise ScenarioError(
                    f"burst {name} must be a finite number,"
                    f" got {value!r}: {self!r}"
                )
        if self.at_us < 0:
            raise ScenarioError(f"burst scheduled before boot: {self!r}")
        if self.kind not in ANTAGONIST_KINDS:
            raise ScenarioError(
                f"unknown antagonist {self.kind!r};"
                f" expected one of {ANTAGONIST_KINDS}"
            )
        if self.scale <= 0:
            raise ScenarioError(f"burst scale must be positive: {self!r}")


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload from the calibrated library, placed and scheduled.

    ``intensity`` scales the job's size (task counts, file sizes,
    compute time) in calibrated steps; ``mount`` pins the workload's
    files to one disk so dropping *other* scenario elements cannot move
    its I/O.
    """

    kind: str
    spu: str
    start_us: int = 0
    mount: int = 0
    intensity: int = 1

    def _validate(self, ndisks: int) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ScenarioError(
                f"unknown workload {self.kind!r};"
                f" expected one of {WORKLOAD_KINDS}"
            )
        if not self.spu or not isinstance(self.spu, str):
            raise ScenarioError(f"workload needs an SPU name: {self!r}")
        if self.spu in RESERVED_SPUS:
            raise ScenarioError(
                f"SPU name {self.spu!r} is reserved for the harness"
            )
        _check_int("workload start_us", self.start_us, lo=0)
        _check_int("workload intensity", self.intensity, lo=1)
        if self.intensity > 4:
            raise ScenarioError(f"intensity must be <= 4, got {self.intensity}")
        mount = _check_int("workload mount", self.mount, lo=0)
        if mount >= ndisks:
            raise ScenarioError(
                f"workload mount {mount} outside machine with {ndisks} disk(s)"
            )


@dataclass
class ScenarioSpec:
    """A validated, replayable fuzz scenario."""

    seed: int
    ncpus: int
    memory_mb: int
    ndisks: int
    scheme: str
    horizon_us: int
    workloads: List[WorkloadSpec] = field(default_factory=list)
    bursts: List[AntagonistBurst] = field(default_factory=list)
    faults: FaultPlan = field(default_factory=FaultPlan)
    harness: str = "fuzz"

    def __post_init__(self) -> None:
        if self.harness not in HARNESSES:
            raise ScenarioError(
                f"unknown harness {self.harness!r}; expected one of {HARNESSES}"
            )
        _check_int("seed", self.seed, lo=0)
        for name, value, (lo, hi) in (
            ("ncpus", self.ncpus, NCPUS_RANGE),
            ("memory_mb", self.memory_mb, MEMORY_MB_RANGE),
            ("ndisks", self.ndisks, NDISKS_RANGE),
        ):
            _check_int(name, value, lo=lo)
            if value > hi:
                raise ScenarioError(f"{name} must be <= {hi}, got {value}")
        if self.scheme not in SCHEMES:
            raise ScenarioError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        _check_int("horizon_us", self.horizon_us, lo=1)
        for workload in self.workloads:
            workload._validate(self.ndisks)
        for burst in self.bursts:
            burst._validate()
        for event in self.faults:
            disk = getattr(event, "disk", None)
            if disk is not None and disk >= self.ndisks:
                raise ScenarioError(
                    f"fault targets disk {disk} outside machine"
                    f" with {self.ndisks} disk(s): {event!r}"
                )
            if isinstance(event, DiskFailure) and event.disk == 0:
                raise ScenarioError(
                    "disk 0 is the failover target and may not die"
                )
        self.workloads = sorted(
            self.workloads, key=lambda w: (w.start_us, w.spu, w.kind)
        )
        self.bursts = sorted(self.bursts, key=lambda b: (b.at_us, b.kind))

    def __len__(self) -> int:
        return len(self.workloads) + len(self.bursts) + len(self.faults)

    # --- derived forms -----------------------------------------------------

    def simulation_spec(self):
        """Lower onto the ordinary :class:`repro.api.SimulationSpec`."""
        from repro.api import SimulationSpec
        from repro.core.schemes import scheme_by_name

        spus = list(RESERVED_SPUS) + sorted({w.spu for w in self.workloads})
        return SimulationSpec(
            ncpus=self.ncpus,
            memory_mb=self.memory_mb,
            scheme=scheme_by_name(self.scheme),
            spus=spus,
            disks=self.ndisks,
            seed=self.seed,
        )

    def replace_events(
        self,
        workloads: List[WorkloadSpec],
        bursts: List[AntagonistBurst],
        faults: List[FaultEvent],
    ) -> "ScenarioSpec":
        """The same machine with a different (sub)set of events."""
        return dataclasses.replace(
            self,
            workloads=list(workloads),
            bursts=list(bursts),
            faults=FaultPlan(list(faults)),
        )

    def replace_machine(
        self,
        ncpus: Optional[int] = None,
        memory_mb: Optional[int] = None,
        ndisks: Optional[int] = None,
        horizon_us: Optional[int] = None,
    ) -> "ScenarioSpec":
        """The same events on a resized machine (shrinking's second axis)."""
        return dataclasses.replace(
            self,
            ncpus=self.ncpus if ncpus is None else ncpus,
            memory_mb=self.memory_mb if memory_mb is None else memory_mb,
            ndisks=self.ndisks if ndisks is None else ndisks,
            horizon_us=self.horizon_us if horizon_us is None else horizon_us,
            faults=FaultPlan(list(self.faults.events)),
        )

    # --- identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """A short stable hash of the whole scenario (corpus identity)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # --- JSON round-trip ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "format": SCENARIO_FORMAT,
            "seed": self.seed,
            "ncpus": self.ncpus,
            "memory_mb": self.memory_mb,
            "ndisks": self.ndisks,
            "scheme": self.scheme,
            "horizon_us": self.horizon_us,
            "workloads": [
                {
                    "kind": w.kind,
                    "spu": w.spu,
                    "start_us": w.start_us,
                    "mount": w.mount,
                    "intensity": w.intensity,
                }
                for w in self.workloads
            ],
            "bursts": [
                {"at_us": b.at_us, "kind": b.kind, "scale": b.scale}
                for b in self.bursts
            ],
            "faults": self.faults.to_dicts(),
        }
        # A fuzz scenario's record predates the field; leaving it out
        # keeps every fuzz fingerprint, corpus line and digest as it was.
        if self.harness != "fuzz":
            record["harness"] = self.harness
        return record

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "ScenarioSpec":
        if not isinstance(record, dict):
            raise ScenarioError(f"scenario must be an object: {record!r}")
        fmt = record.get("format", SCENARIO_FORMAT)
        if fmt != SCENARIO_FORMAT:
            raise ScenarioError(
                f"not a fuzz scenario (format={fmt!r}, expected"
                f" {SCENARIO_FORMAT!r})"
            )
        missing = {
            "seed", "ncpus", "memory_mb", "ndisks", "scheme", "horizon_us",
            "workloads", "bursts", "faults",
        } - set(record)
        if missing:
            raise ScenarioError(f"scenario missing fields: {sorted(missing)}")
        try:
            workloads = [WorkloadSpec(**w) for w in record["workloads"]]
        except TypeError as exc:
            raise ScenarioError(f"bad workload fields: {exc}") from None
        try:
            bursts = [AntagonistBurst(**b) for b in record["bursts"]]
        except TypeError as exc:
            raise ScenarioError(f"bad burst fields: {exc}") from None
        try:
            faults = FaultPlan.from_dicts(record["faults"])
        except FaultPlanError as exc:
            raise ScenarioError(f"bad fault plan: {exc}") from None
        return cls(
            seed=record["seed"],
            ncpus=record["ncpus"],
            memory_mb=record["memory_mb"],
            ndisks=record["ndisks"],
            scheme=record["scheme"],
            horizon_us=record["horizon_us"],
            workloads=workloads,
            bursts=bursts,
            faults=faults,
            harness=record.get("harness", "fuzz"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
        return cls.from_dict(record)
