"""Chaos plans: seeded antagonist mixes composed with fault schedules.

A chaos plan is a :class:`~repro.fuzz.scenario.ScenarioSpec` with
``harness="chaos"``: a seed, a horizon, a list of antagonist bursts and
a :class:`~repro.faults.FaultPlan` on the fixed chaos machine (4 CPUs,
16 MB, 2 fast disks, PIso, no workloads).  Everything downstream —
which antagonists fire when, which hardware dies when, every RNG stream
in the run — derives from the plan, so a plan that breaks an invariant
*is* the bug report.

:func:`generate_plan` draws a random-but-legal plan from a seed.  The
generator walks simulated time with a small state machine so the raw
fault mix stays meaningful: the machine always keeps at least
``MIN_CPUS_ONLINE`` processors, disk 0 (the failover target) never
dies, and a ``CpuAdd`` is only emitted while a processor is actually
offline.  Delta-shrinking can still break those pairings — the runner
arms plans with ``on_error="skip"`` so such plans stay runnable.
"""

from __future__ import annotations

import random
from typing import List

from repro.antagonists import ANTAGONIST_KINDS
from repro.faults.plan import (
    CpuAdd,
    CpuRemove,
    DiskTransient,
    DiskFailure,
    FaultEvent,
    FaultPlan,
    MemoryLoss,
)
from repro.fuzz.scenario import AntagonistBurst, ScenarioSpec, _check_int
from repro.sim.units import MSEC, SEC

#: The chaos machine shape.
CHAOS_NCPUS = 4
CHAOS_MEMORY_MB = 16
CHAOS_NDISKS = 2
CHAOS_SCHEME = "piso"
#: Hot-removal never takes the machine below this many processors.
MIN_CPUS_ONLINE = 2
DEFAULT_HORIZON_US = 8 * SEC


def generate_plan(
    seed: int,
    horizon_us: int = DEFAULT_HORIZON_US,
    max_bursts: int = 3,
    max_faults: int = 4,
) -> ScenarioSpec:
    """Draw a random, legal chaos plan from ``seed``.

    Bursts land in the first half of the horizon (so their damage has
    time to show); faults are drawn in time order against a running
    model of machine state, keeping the schedule legal at generation
    time.  A horizon below 1 us raises
    :class:`~repro.fuzz.scenario.ScenarioError` before anything is drawn.
    """
    _check_int("horizon_us", horizon_us, lo=1)
    rng = random.Random(f"{seed}/chaos/plan")

    bursts = []
    for _ in range(rng.randint(1, max_bursts)):
        bursts.append(
            AntagonistBurst(
                at_us=rng.randrange(0, max(1, horizon_us // 2)),
                kind=rng.choice(ANTAGONIST_KINDS),
                scale=rng.choice([0.5, 1.0, 1.0, 1.5]),
            )
        )

    events: List[FaultEvent] = []
    cpus_online = CHAOS_NCPUS
    disk1_alive = CHAOS_NDISKS > 1
    times = sorted(
        rng.randrange(0, horizon_us) for _ in range(rng.randint(0, max_faults))
    )
    for at_us in times:
        choices = ["disk_transient", "memory_loss"]
        if cpus_online > MIN_CPUS_ONLINE:
            choices.append("cpu_remove")
        if cpus_online < CHAOS_NCPUS:
            choices.append("cpu_add")
        if disk1_alive:
            choices.append("disk_failure")
        kind = rng.choice(choices)
        if kind == "disk_transient":
            events.append(
                DiskTransient(
                    at_us=at_us,
                    disk=rng.randrange(CHAOS_NDISKS),
                    duration_us=rng.randrange(50 * MSEC, 400 * MSEC),
                    error_rate=round(rng.uniform(0.3, 0.9), 2),
                )
            )
        elif kind == "memory_loss":
            # Bounded well under the victim's needs: at most 1/8 of the
            # machine per event.
            pages = (CHAOS_MEMORY_MB * 256) // 8
            events.append(MemoryLoss(at_us=at_us, pages=rng.randrange(64, pages)))
        elif kind == "cpu_remove":
            events.append(CpuRemove(at_us=at_us))
            cpus_online -= 1
        elif kind == "cpu_add":
            events.append(CpuAdd(at_us=at_us))
            cpus_online += 1
        else:  # disk_failure — never disk 0, the failover target
            events.append(DiskFailure(at_us=at_us, disk=1))
            disk1_alive = False

    return ScenarioSpec(
        seed=seed,
        ncpus=CHAOS_NCPUS,
        memory_mb=CHAOS_MEMORY_MB,
        ndisks=CHAOS_NDISKS,
        scheme=CHAOS_SCHEME,
        horizon_us=horizon_us,
        bursts=bursts,
        faults=FaultPlan(events),
        harness="chaos",
    )
