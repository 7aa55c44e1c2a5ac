"""Seeded, legal-by-construction scenario generation.

:func:`generate_scenario` draws one :class:`~repro.fuzz.scenario.ScenarioSpec`
from a seed: machine shape, scheme, a workload mix from the calibrated
library, antagonist bursts, and a fault schedule.  Like the chaos
soak's plan generator it walks simulated time with a
small state machine so the draw is legal at generation time — the
machine keeps at least half its processors, disk 0 (the failover
target) never dies, memory losses stay bounded per event, and every
fault/workload targets a disk the drawn machine actually has.

Everything derives from ``random.Random(f"{seed}/fuzz/scenario")``, so
the mapping seed -> scenario is stable across runs, machines, and
worker processes — the corpus stores seeds, not scenarios.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.faults.plan import (
    CpuAdd,
    CpuRemove,
    DiskFailure,
    DiskTransient,
    FaultEvent,
    FaultPlan,
    MemoryLoss,
)
from repro.fuzz.scenario import (
    SCHEMES,
    WORKLOAD_KINDS,
    AntagonistBurst,
    ScenarioSpec,
    WorkloadSpec,
    _check_int,
)
from repro.sim.units import MSEC, SEC

#: Machine shapes the generator draws from (all inside the legal
#: ranges, all big enough for the victim's working set).
GEN_NCPUS = (2, 3, 4, 6, 8)
GEN_MEMORY_MB = (12, 16, 24, 32)
GEN_NDISKS = (1, 2, 3)
GEN_HORIZONS = (1 * SEC, 2 * SEC)

#: Event-count ceilings per scenario.
MAX_WORKLOADS = 3
MAX_BURSTS = 2
MAX_FAULTS = 3


def generate_scenario(
    seed: int,
    horizon_us: Optional[int] = None,
    scheme: Optional[str] = None,
) -> ScenarioSpec:
    """Draw a random, legal scenario from ``seed``.

    ``horizon_us``/``scheme`` pin those draws (the CI campaign pins the
    horizon to keep its budget); everything else comes from the seed.
    A pinned horizon below 1 us raises
    :class:`~repro.fuzz.scenario.ScenarioError` before anything is drawn.
    """
    if horizon_us is not None:
        _check_int("horizon_us", horizon_us, lo=1)
    rng = random.Random(f"{seed}/fuzz/scenario")

    ncpus = rng.choice(GEN_NCPUS)
    memory_mb = rng.choice(GEN_MEMORY_MB)
    ndisks = rng.choice(GEN_NDISKS)
    drawn_scheme = rng.choice(SCHEMES)
    drawn_horizon = rng.choice(GEN_HORIZONS)
    if scheme is not None:
        drawn_scheme = scheme
    if horizon_us is not None:
        drawn_horizon = horizon_us

    # Workload mix: jobs land in the first half so their behaviour has
    # time to interact with the bursts and faults that follow.
    workloads = []
    for _ in range(rng.randint(1, MAX_WORKLOADS)):
        workloads.append(
            WorkloadSpec(
                kind=rng.choice(WORKLOAD_KINDS),
                spu=f"load{rng.randint(0, 1)}",
                start_us=rng.randrange(0, max(1, drawn_horizon // 2)),
                mount=rng.randrange(ndisks),
                intensity=rng.randint(1, 2),
            )
        )

    bursts = []
    for _ in range(rng.randint(0, MAX_BURSTS)):
        bursts.append(
            AntagonistBurst(
                at_us=rng.randrange(0, max(1, drawn_horizon // 2)),
                kind=rng.choice(
                    ("fork_bomb", "memory_bomb", "disk_flooder",
                     "cache_polluter", "lock_hogger", "metadata_storm")
                ),
                scale=rng.choice([0.5, 1.0, 1.0, 1.5]),
            )
        )

    # Fault schedule: drawn in time order against a running machine
    # model, mirroring the chaos generator but on the drawn shape.
    events: list = []
    min_online = max(1, ncpus // 2)
    cpus_online = ncpus
    dead_disks: set = set()
    times = sorted(
        rng.randrange(0, drawn_horizon)
        for _ in range(rng.randint(0, MAX_FAULTS))
    )
    for at_us in times:
        choices = ["disk_transient", "memory_loss"]
        if cpus_online > min_online:
            choices.append("cpu_remove")
        if cpus_online < ncpus:
            choices.append("cpu_add")
        killable = [d for d in range(1, ndisks) if d not in dead_disks]
        if killable:
            choices.append("disk_failure")
        kind = rng.choice(choices)
        if kind == "disk_transient":
            events.append(
                DiskTransient(
                    at_us=at_us,
                    disk=rng.randrange(ndisks),
                    duration_us=rng.randrange(50 * MSEC, 400 * MSEC),
                    error_rate=round(rng.uniform(0.3, 0.9), 2),
                )
            )
        elif kind == "memory_loss":
            # At most 1/8 of the machine per event, well under the
            # victim's entitlement.
            ceiling = (memory_mb * 256) // 8
            events.append(
                MemoryLoss(at_us=at_us, pages=rng.randrange(64, ceiling))
            )
        elif kind == "cpu_remove":
            events.append(CpuRemove(at_us=at_us))
            cpus_online -= 1
        elif kind == "cpu_add":
            events.append(CpuAdd(at_us=at_us))
            cpus_online += 1
        else:
            disk = rng.choice(killable)
            events.append(DiskFailure(at_us=at_us, disk=disk))
            dead_disks.add(disk)

    faults: list[FaultEvent] = events
    return ScenarioSpec(
        seed=seed,
        ncpus=ncpus,
        memory_mb=memory_mb,
        ndisks=ndisks,
        scheme=drawn_scheme,
        horizon_us=drawn_horizon,
        workloads=workloads,
        bursts=bursts,
        faults=FaultPlan(faults),
    )
