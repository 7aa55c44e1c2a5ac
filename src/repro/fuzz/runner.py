"""Run one scenario under the full oracle stack.

:func:`run_scenario` lowers a :class:`~repro.fuzz.scenario.ScenarioSpec`
onto the ordinary :func:`repro.api.build` seam, plants a
latency-sensitive victim SPU next to an attacker SPU, starts the
scenario's workload mix from the calibrated library, fires its
antagonist bursts, arms its fault schedule (``on_error="skip"`` so
shrunken scenarios stay runnable), and judges the run with four oracle
families:

* **conservation laws** — the :class:`~repro.faults.InvariantWatchdog`
  records breaches of ledger sanity, page and CPU conservation
  (:mod:`repro.faults.laws`), starvation and dead-drive quiet every
  tick;
* **SIMSAN** — with ``simsan=True`` (or ``REPRO_SIMSAN=1``) the runtime
  sanitizer re-checks the same laws, and its own, after every event;
  its raise is caught and recorded as a ``simsan`` violation so
  campaigns keep going;
* **victim progress** — the victim's jobs checkpoint after every short
  compute burst, and no window may pass without a checkpoint.  This is
  the paper's isolation claim as a lower bound.  A fuzz scenario's
  window scales with its scheme's promise: PIso must keep the victim
  moving in every quarter-horizon window, Quo and Stride in every
  half-horizon window, and SMP (which promises nothing under attack)
  is held only to the conservation laws.  A chaos plan keeps the
  fixed :data:`CHAOS_PROGRESS_WINDOW_US`;
* **differential** — :func:`run_record` is a pure function of
  ``(scenario, simsan)``; the campaign re-runs cells in-process and
  compares records byte-for-byte against worker results.

The scenario's ``harness`` decides three things and nothing else: the
burst RNG streams, the journal header and the progress window.

The deterministic journal (and its digest) is what makes corpus
entries, repro files, and ddmin trustworthy: same scenario, same bytes.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.antagonists import launch
from repro.api import build
from repro.faults import FaultInjector, InvariantWatchdog, OverloadGuard, Violation
from repro.fuzz.scenario import ScenarioSpec, WorkloadSpec
from repro.kernel.kernel import Kernel
from repro.kernel.locks import KernelLock
from repro.kernel.syscalls import Acquire, Behavior, Checkpoint, Compute, Release, SetWorkingSet
from repro.sanitizer import SanitizerError, switched
from repro.sim.units import KB, MSEC
from repro.workloads import (
    CopyParams,
    InteractiveParams,
    OceanParams,
    PmakeParams,
    SimulatorParams,
    copy_job,
    cpu_hog,
    create_pmake_files,
    interactive_user,
    ocean_processes,
    pmake_job,
    simulator_process,
)

#: Victim shape: a few small jobs checkpointing every short burst.
VICTIM_JOBS = 2
VICTIM_BURST_US = 5 * MSEC
VICTIM_WS_PAGES = 64
VICTIM_LOCK_HOLD_US = 50

#: Victim-progress bound per scheme, as a divisor of the horizon: the
#: contract oracle flags any window of ``horizon // divisor`` without a
#: victim checkpoint.  ``None`` means no progress promise (SMP shares
#: freely, so a fork bomb legitimately starves neighbours).
SCHEME_PROGRESS_DIVISOR = {
    "piso": 4,
    "quo": 2,
    "stride": 2,
    "smp": None,
}
#: A chaos plan's window, whatever its horizon.
CHAOS_PROGRESS_WINDOW_US = 250 * MSEC

#: Environment flag that plants a deliberate conservation bug, used to
#: prove the fuzzer finds and shrinks real invariant breaks end to end:
#: ``page-leak`` steals pages from the free list 1 ms after boot;
#: ``burst-leak`` steals them whenever an antagonist burst fires (so a
#: shrunken repro must keep at least one burst).
ENV_PLANT = "REPRO_FUZZ_PLANT"
PLANT_LEAK_PAGES = 7


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    scenario: ScenarioSpec
    violations: List[Violation] = field(default_factory=list)
    journal: List[str] = field(default_factory=list)
    checkpoints: int = 0
    #: Events executed by the engine (0 if SIMSAN aborted the run).
    events: int = 0
    escalations: int = 0
    faults_applied: int = 0
    faults_skipped: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "ok" if self.ok else "violation"

    def digest(self) -> str:
        """Stable hash of the journal — the byte-identity handle."""
        return hashlib.sha256("\n".join(self.journal).encode()).hexdigest()[:16]


def victim_job(lock: KernelLock, rounds: int, tag: str) -> Behavior:
    """Short compute bursts, each followed by a checkpoint.

    The brief shared-lock section keeps the victim on the kernel-lock
    path (so a lock hogger is an actual antagonist for it) without
    making progress depend on anything an attacker can hold for long.
    """
    acquire = Acquire(lock, shared=True)
    hold = Compute(VICTIM_LOCK_HOLD_US)
    release = Release(lock)
    burst = Compute(VICTIM_BURST_US)
    yield SetWorkingSet(pages=VICTIM_WS_PAGES)
    for i in range(rounds):
        yield acquire
        yield hold
        yield release
        yield burst
        yield Checkpoint(f"{tag}.{i}")
    yield SetWorkingSet(pages=0)


def progress_violations(
    victim_procs: List, horizon_us: int, window_us: int
) -> List[Violation]:
    """Flag every empty checkpoint window while the victim should move.

    ``window_us`` is the oracle's bound: no window of that many
    microseconds may pass without a single victim checkpoint.
    """
    times = sorted(
        t for p in victim_procs for (_label, t) in p.checkpoints
    )
    # Stop checking once every victim job has exited (a finished victim
    # legitimately stops checkpointing).
    end = horizon_us
    if all(not p.alive for p in victim_procs):
        end = min(horizon_us, max(p.finished for p in victim_procs))
    violations = []
    cursor = 0
    for start in range(0, end - window_us + 1, window_us):
        stop = start + window_us
        while cursor < len(times) and times[cursor] < start:
            cursor += 1
        if cursor < len(times) and times[cursor] < stop:
            continue
        violations.append(
            Violation(
                stop,
                "victim-progress",
                f"no victim checkpoint in [{start}us, {stop}us)",
            )
        )
    return violations


def _progress_window(scenario: ScenarioSpec) -> Optional[int]:
    """The victim-progress window, or None for no progress promise."""
    if scenario.harness == "chaos":
        return CHAOS_PROGRESS_WINDOW_US
    divisor = SCHEME_PROGRESS_DIVISOR[scenario.scheme]
    return None if divisor is None else max(1, scenario.horizon_us // divisor)


def _journal_header(scenario: ScenarioSpec) -> str:
    if scenario.harness == "chaos":
        return (
            f"plan | seed={scenario.seed} horizon={scenario.horizon_us}us"
            f" bursts={len(scenario.bursts)} faults={len(scenario.faults)}"
        )
    return (
        f"scenario | seed={scenario.seed} fp={scenario.fingerprint()}"
        f" machine={scenario.ncpus}cpu/{scenario.memory_mb}MB/"
        f"{scenario.ndisks}disk scheme={scenario.scheme}"
        f" horizon={scenario.horizon_us}us"
        f" workloads={len(scenario.workloads)} bursts={len(scenario.bursts)}"
        f" faults={len(scenario.faults)}"
    )


def _leak_pages(kernel: Kernel) -> None:
    """The planted bug: pages vanish without any SPU being charged."""
    kernel.memory.free_pages -= PLANT_LEAK_PAGES


def _start_workload(kernel: Kernel, spu, w: WorkloadSpec, tag: str) -> None:
    """Translate one :class:`WorkloadSpec` into running processes.

    Parameters are the calibrated library's, scaled down by
    ``intensity`` steps so a cell stays a fraction of a second of wall
    time; file names derive from ``tag`` so re-runs and sub-scenarios
    lay out identical footprints.
    """
    i = w.intensity
    if w.kind == "pmake":
        params = PmakeParams(
            n_tasks=2 * i, parallelism=2, compile_ms=10.0 * i,
            src_kb=16, obj_kb=8,
        )
        files = create_pmake_files(kernel.fs, w.mount, params, job_name=tag)
        kernel.spawn(pmake_job(files, params), spu, name=tag)
    elif w.kind == "copy":
        params = CopyParams(size_bytes=256 * i * KB)
        src, dst = kernel.fs.create(
            w.mount, f"{tag}/src", params.size_bytes
        ), kernel.fs.create(w.mount, f"{tag}/dst", params.size_bytes)
        kernel.spawn(copy_job(src, dst, params), spu, name=tag)
    elif w.kind == "ocean":
        params = OceanParams(nprocs=2, phases=4 * i, phase_ms=10.0)
        for n, behavior in enumerate(ocean_processes(params)):
            kernel.spawn(behavior, spu, name=f"{tag}.{n}")
    elif w.kind == "simulator":
        params = SimulatorParams(total_ms=100.0 * i, startup_ms=10.0)
        kernel.spawn(simulator_process(params), spu, name=tag)
    elif w.kind == "interactive":
        params = InteractiveParams(bursts=10 * i)
        kernel.spawn(interactive_user(params), spu, name=tag)
    else:  # cpu_hog — scenario validation guarantees the kind set
        kernel.spawn(cpu_hog(total_ms=50.0 * i), spu, name=tag)


def run_scenario(
    scenario: ScenarioSpec, simsan: Optional[bool] = None
) -> ScenarioResult:
    """Run ``scenario`` once and judge it against every oracle.

    ``simsan=None`` defers to the ``REPRO_SIMSAN`` environment (the
    kernel installs the sanitizer at boot); ``True``/``False`` force it
    on/off for this run's kernel (:func:`repro.sanitizer.switched`).
    """
    # The one sanctioned env read in the simulated world: the planted
    # bug exists to prove the fuzzer catches real invariant breaks.
    plant = os.environ.get(ENV_PLANT, "").strip()  # simlint: disable=SL104
    with switched(simsan):
        sim = build(scenario.simulation_spec())
    kernel = sim.kernel

    victim = sim.spu("victim")
    attacker = sim.spu("attacker")
    lock = KernelLock("inode", reader_writer=True, inheritance=True)
    watchdog = InvariantWatchdog(kernel)
    watchdog.start()
    guard = OverloadGuard(kernel)
    guard.start()
    injector = FaultInjector(kernel, scenario.faults, on_error="skip")
    injector.arm()

    if plant == "page-leak":
        kernel.engine.at(1 * MSEC, _leak_pages, kernel, daemon=True)

    rounds = scenario.horizon_us // (VICTIM_BURST_US + VICTIM_LOCK_HOLD_US)
    victim_procs = [
        kernel.spawn(victim_job(lock, rounds, f"v{j}"), victim, name=f"victim-{j}")
        for j in range(VICTIM_JOBS)
    ]

    starts: List[Tuple[int, str]] = []
    seen: Dict[Tuple[str, str, int], int] = {}
    for w in scenario.workloads:
        key = (w.spu, w.kind, w.start_us)
        nth = seen.get(key, 0)
        seen[key] = nth + 1
        tag = f"fuzz/{w.spu}.{w.kind}.{w.start_us}.{nth}"

        def go(w=w, tag=tag) -> None:
            _start_workload(kernel, sim.spu(w.spu), w, tag)
            starts.append((kernel.engine.now, f"workload {tag} x{w.intensity}"))

        kernel.engine.at(w.start_us, go, daemon=True)

    launches: List[Tuple[int, str]] = []
    for i, burst in enumerate(scenario.bursts):
        def fire(burst=burst, i=i) -> None:
            rng = random.Random(
                f"{scenario.seed}/{scenario.harness}/burst/{i}/{burst.kind}"
            )
            procs = launch(
                kernel, attacker, burst.kind, rng, mount=0,
                shared_lock=lock, scale=burst.scale,
            )
            launches.append(
                (kernel.engine.now,
                 f"burst {i}: {burst.kind} x{len(procs)} (scale {burst.scale:g})")
            )
            if plant == "burst-leak":
                _leak_pages(kernel)
        kernel.engine.at(burst.at_us, fire, daemon=True)

    events = 0
    sanitizer_violation: Optional[Violation] = None
    try:
        events = kernel.run(until=scenario.horizon_us)
    except SanitizerError as exc:
        sanitizer_violation = Violation(
            kernel.engine.now, "simsan", str(exc)
        )

    violations = list(watchdog.violations)
    if sanitizer_violation is not None:
        violations.append(sanitizer_violation)
    window = _progress_window(scenario)
    if window is not None and sanitizer_violation is None:
        violations += progress_violations(
            victim_procs, scenario.horizon_us, window
        )
    violations.sort(key=lambda v: (v.time_us, v.name))

    entries: List[Tuple[int, str]] = []
    entries += [(t, f"start | {text}") for t, text in starts]
    entries += [(t, f"launch | {text}") for t, text in launches]
    entries += [(t, f"fault | {text}") for t, text in injector.applied]
    entries += [(t, f"fault-skipped | {text}") for t, text in injector.skipped]
    entries += [
        (e.time_us, f"guard | {e.stage} SPU {e.spu_id}: {e.detail}")
        for e in guard.escalations
    ]
    entries += [(v.time_us, f"VIOLATION | {v.name}: {v.detail}") for v in violations]
    entries.sort(key=lambda e: (e[0], e[1]))

    checkpoints = sum(len(p.checkpoints) for p in victim_procs)
    journal = [_journal_header(scenario)]
    journal += [f"t={t:>10} | {text}" for t, text in entries]
    journal.append(
        f"end | checkpoints={checkpoints}"
        f" escalations={len(guard.escalations)}"
        f" violations={len(violations)}"
    )

    return ScenarioResult(
        scenario=scenario,
        violations=violations,
        journal=journal,
        checkpoints=checkpoints,
        events=events,
        escalations=len(guard.escalations),
        faults_applied=len(injector.applied),
        faults_skipped=len(injector.skipped),
    )


def run_record(
    scenario: ScenarioSpec, simsan: Optional[bool] = None
) -> Dict[str, Any]:
    """One scenario's corpus record: a pure function of the inputs.

    This is what campaign cells return and what corpus lines serialise;
    it must contain nothing host- or wall-clock-dependent, or corpus
    resume would stop being byte-identical.
    """
    result = run_scenario(scenario, simsan=simsan)
    return {
        "seed": scenario.seed,
        "fingerprint": scenario.fingerprint(),
        "verdict": result.verdict,
        "violations": sorted({v.name for v in result.violations}),
        "checkpoints": result.checkpoints,
        "events": result.events,
        "digest": result.digest(),
    }
