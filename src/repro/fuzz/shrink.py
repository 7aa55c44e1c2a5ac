"""Universal shrinking: ddmin whole scenarios, then the machine itself.

A failing scenario — a generated one or a chaos plan — has removable
structure on two axes: its events (workloads, antagonist bursts, fault
events) and the machine's own dimensions (CPUs, memory, disks,
horizon).  :func:`shrink_scenario` minimises both:

1. ddmin (:mod:`repro.fuzz.ddmin`) over the combined event list, with
   the violation *name* anchoring the search so the shrink cannot
   wander to a different bug;
2. greedy dimension reduction — repeatedly halve CPUs, memory, and the
   horizon and drop disks (never below the floor a remaining event
   still references), keeping each reduction only if the violation
   still reproduces.  A chaos plan keeps its fixed machine and shrinks
   only its horizon.

The result lands in a **repro file**: the minimal scenario plus the
violation it produces, replayable with ``python -m repro fuzz --repro
FILE`` (and :func:`replay` from code).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.faults import Violation
from repro.fuzz.ddmin import ddmin
from repro.fuzz.runner import ScenarioResult, run_scenario
from repro.fuzz.scenario import (
    AntagonistBurst,
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.sim.units import MSEC

#: Repro-file format tag (the scenario inside carries its own).
REPRO_FORMAT = "repro.fuzz-repro/1"

#: Dimension floors the greedy pass never goes below.
MIN_NCPUS = 1
MIN_MEMORY_MB = 8
MIN_HORIZON_US = 200 * MSEC


# --- repro files -------------------------------------------------------------


def repro_record(result: ScenarioResult) -> Dict[str, Any]:
    """The repro-file payload for a failing scenario run."""
    if result.ok:
        raise ValueError("run produced no violation; nothing to reproduce")
    first = result.violations[0]
    return {
        "format": REPRO_FORMAT,
        "scenario": result.scenario.to_dict(),
        "violation": {
            "time_us": first.time_us,
            "name": first.name,
            "detail": first.detail,
        },
    }


def write_repro(path: str, result: ScenarioResult) -> None:
    """Write a failing run's repro file (JSON, stable key order)."""
    with open(path, "w") as fh:
        json.dump(repro_record(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_repro(path: str) -> Tuple[ScenarioSpec, Violation]:
    """Read a repro file back into (scenario, recorded first violation)."""
    with open(path) as fh:
        record = json.load(fh)
    if record.get("format") != REPRO_FORMAT:
        raise ScenarioError(
            f"not a fuzz repro file (format={record.get('format')!r})"
        )
    scenario = ScenarioSpec.from_dict(record["scenario"])
    v = record["violation"]
    return scenario, Violation(v["time_us"], v["name"], v["detail"])


def replay(path: str, simsan: Optional[bool] = None) -> ScenarioResult:
    """Re-run a repro file's scenario; returns the deterministic result."""
    scenario, _ = load_repro(path)
    return run_scenario(scenario, simsan=simsan)


# --- shrinking ---------------------------------------------------------------


@dataclass
class ShrinkScenarioResult:
    """The minimal scenario the search converged on, plus bookkeeping."""

    scenario: ScenarioSpec
    violation_name: str
    runs: int


def _split_events(scenario: ScenarioSpec) -> List[Any]:
    return (
        list(scenario.workloads)
        + list(scenario.bursts)
        + list(scenario.faults.events)
    )


def _join_events(scenario: ScenarioSpec, events: List[Any]) -> ScenarioSpec:
    workloads = [e for e in events if isinstance(e, WorkloadSpec)]
    bursts = [e for e in events if isinstance(e, AntagonistBurst)]
    faults = [
        e for e in events
        if not isinstance(e, (WorkloadSpec, AntagonistBurst))
    ]
    return scenario.replace_events(workloads, bursts, faults)


def _disk_floor(scenario: ScenarioSpec) -> int:
    """Smallest ndisks that keeps every remaining disk reference legal."""
    referenced = [0]
    referenced += [w.mount for w in scenario.workloads]
    referenced += [
        e.disk for e in scenario.faults if getattr(e, "disk", None) is not None
    ]
    return 1 + max(referenced)


def _dim_candidates(scenario: ScenarioSpec) -> List[ScenarioSpec]:
    """The next batch of single-dimension reductions to try, in order.

    A chaos plan keeps the fixed chaos machine, which its journal
    header does not name: only its horizon shrinks.
    """
    out = []
    if scenario.harness != "chaos":
        if scenario.ncpus > MIN_NCPUS:
            out.append(scenario.replace_machine(
                ncpus=max(MIN_NCPUS, scenario.ncpus // 2)
            ))
        if scenario.memory_mb > MIN_MEMORY_MB:
            out.append(scenario.replace_machine(
                memory_mb=max(MIN_MEMORY_MB, scenario.memory_mb // 2)
            ))
        if scenario.ndisks > _disk_floor(scenario):
            out.append(scenario.replace_machine(ndisks=scenario.ndisks - 1))
    if scenario.horizon_us > MIN_HORIZON_US:
        out.append(scenario.replace_machine(
            horizon_us=max(MIN_HORIZON_US, scenario.horizon_us // 2)
        ))
    return out


def shrink_scenario(
    scenario: ScenarioSpec,
    violation_name: str,
    max_runs: int = 64,
    simsan: Optional[bool] = None,
) -> ShrinkScenarioResult:
    """Minimise a failing scenario on both axes within ``max_runs``.

    ``violation_name`` anchors the search: a candidate "fails" only if
    it still produces a violation of that name.  Every probe is a full
    simulation, so ``max_runs`` bounds total cost; whatever the budget,
    the returned scenario is one that still fails.
    """
    runs = 0

    def fails(candidate: ScenarioSpec) -> bool:
        nonlocal runs
        runs += 1
        result = run_scenario(candidate, simsan=simsan)
        return any(v.name == violation_name for v in result.violations)

    if not fails(scenario):
        raise ValueError(
            f"scenario does not produce a {violation_name!r} violation;"
            " cannot shrink"
        )

    # Axis 1: the event list, via universal ddmin.
    if len(scenario) > 0 and runs < max_runs:
        # The closure already counts every ddmin probe in ``runs``, so
        # the returned probe count is deliberately unused.
        minimal, _ = ddmin(
            _split_events(scenario),
            lambda events: fails(_join_events(scenario, events)),
            max_runs=max_runs - runs,
        )
        scenario = _join_events(scenario, minimal)

    # Axis 2: machine dimensions, greedily.
    progressed = True
    while progressed and runs < max_runs:
        progressed = False
        for candidate in _dim_candidates(scenario):
            if runs >= max_runs:
                break
            if fails(candidate):
                scenario = candidate
                progressed = True
                break

    return ShrinkScenarioResult(
        scenario=scenario, violation_name=violation_name, runs=runs
    )
