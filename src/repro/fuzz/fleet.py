"""The fuzzer's fleet dimension: random fleets, crash schedules, SLOs.

:func:`generate_fleet_scenario` draws one legal-by-construction
:class:`~repro.fleet.spec.FleetSpec` from a seed — machine count and
shapes, an SPU population with random demands and SLO floors that
never overcommits a home machine, and a fleet fault schedule where
crash/recover alternate per machine and every partition window ends
before the horizon.  :func:`run_fleet_fuzz_record` runs it through
:func:`repro.fleet.runner.run_fleet_record` and reshapes the result
into the campaign's corpus-record schema, so fleet cells flow through
the same resumable JSONL corpus, sharding, and differential replay as
single-machine scenario cells.

Everything derives from ``random.Random(f"{seed}/fuzz/fleet")``: the
corpus stores seeds, not fleets.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, Optional

from repro.faults.fleet import (
    FleetFaultPlan,
    MachineCrash,
    MachineRecover,
    NetworkPartition,
)
from repro.fleet.runner import run_fleet_record
from repro.fleet.spec import (
    FLEET_SCHEMES,
    FleetMachineSpec,
    FleetSpec,
    FleetSpuSpec,
)
from repro.sanitizer import switched
from repro.sim.units import MSEC

#: Fleet shapes the generator draws from.
GEN_MACHINES = (2, 3, 4)
GEN_NCPUS = (2, 4)
GEN_HORIZONS = (300 * MSEC, 500 * MSEC)
#: Max SPUs per home machine (subject to the capacity budget).
MAX_SPUS_PER_MACHINE = 2


def generate_fleet_scenario(
    seed: int,
    horizon_us: Optional[int] = None,
    scheme: Optional[str] = None,
) -> FleetSpec:
    """Draw a random, legal fleet from ``seed``.

    The draw is legal at generation time: SPU demands are budgeted
    against each home machine's capacity, at most one crash per
    machine (with an optional later recovery keeping the lifecycle
    alternation), and partitions only ever name machines the fleet
    has.  ``horizon_us``/``scheme`` pin those draws, mirroring
    :func:`repro.fuzz.generate.generate_scenario`.
    """
    rng = random.Random(f"{seed}/fuzz/fleet")

    n_machines = rng.choice(GEN_MACHINES)
    drawn_scheme = rng.choice(FLEET_SCHEMES)
    drawn_horizon = rng.choice(GEN_HORIZONS)
    if scheme is not None:
        drawn_scheme = scheme
    if horizon_us is not None:
        drawn_horizon = horizon_us

    machines = [
        FleetMachineSpec(ncpus=rng.choice(GEN_NCPUS), memory_mb=16)
        for _ in range(n_machines)
    ]
    spus = []
    placement: Dict[str, int] = {}
    for index, machine in enumerate(machines):
        budget = float(machine.ncpus)
        for n in range(rng.randint(1, MAX_SPUS_PER_MACHINE)):
            if budget < 0.5:
                break
            demand = rng.choice([0.5, 1.0, 1.5])
            demand = min(demand, budget)
            budget -= demand
            spu = FleetSpuSpec(
                name=f"spu{index}-{n}",
                demand_cpus=demand,
                slo_min_fraction=rng.choice([0.25, 0.5, 0.75, 0.9]),
                jobs=rng.randint(1, 2),
                rounds=rng.randint(50, 200),
                compute_us=rng.choice([2000, 5000]),
            )
            spus.append(spu)
            placement[spu.name] = index

    # Fault schedule: each machine crashes at most once, optionally
    # recovering later; one optional partition window inside the
    # horizon.  Crash times keep clear of 0 and the horizon so every
    # run has a pre-fault and post-fault epoch.
    events = []
    crashed = [i for i in range(n_machines) if rng.random() < 0.6]
    # Never crash everything at once: keep machine 0's index out if
    # the draw selected the whole fleet.
    if len(crashed) == n_machines:
        crashed = crashed[1:]
    for machine in crashed:
        at_us = rng.randrange(drawn_horizon // 4, (3 * drawn_horizon) // 4)
        events.append(MachineCrash(at_us=at_us, machine=machine))
        if rng.random() < 0.5:
            recover_at = rng.randrange(at_us + 1, drawn_horizon)
            events.append(MachineRecover(at_us=recover_at, machine=machine))
    if rng.random() < 0.4:
        target = tuple(sorted(rng.sample(
            range(n_machines), rng.randint(1, n_machines)
        )))
        at_us = rng.randrange(0, (3 * drawn_horizon) // 4)
        events.append(NetworkPartition(
            at_us=at_us,
            machines=target,
            duration_us=rng.randrange(1, drawn_horizon - at_us + 1),
        ))

    return FleetSpec(
        machines=machines,
        spus=spus,
        placement=placement,
        scheme=drawn_scheme,
        seed=seed,
        horizon_us=drawn_horizon,
        faults=FleetFaultPlan(events),
    )


def fleet_fingerprint(spec: FleetSpec) -> str:
    """Stable short hash of the full fleet draw (the corpus handle)."""
    return hashlib.sha256(
        spec.to_json(indent=None).encode()
    ).hexdigest()[:12]


def run_fleet_fuzz_record(
    seed: int,
    horizon_us: Optional[int] = None,
    simsan: Optional[bool] = None,
) -> Dict[str, Any]:
    """One fleet cell's corpus record: a pure function of the inputs.

    Matches the single-machine record schema (seed, fingerprint,
    verdict, violations, checkpoints, events, digest) so corpus
    resume, repair and reporting treat both dimensions identically;
    ``checkpoints`` counts the fleet's durable rounds.  ``simsan``
    forces SIMSAN on or off for every machine the fleet boots, lazily
    built ones included (:func:`repro.sanitizer.switched`).
    """
    spec = generate_fleet_scenario(seed, horizon_us=horizon_us)
    with switched(simsan):
        record = run_fleet_record(spec)
    return {
        "seed": seed,
        "fingerprint": fleet_fingerprint(spec),
        "verdict": record["verdict"],
        "violations": record["violations"],
        "checkpoints": sum(record["progress"].values()),
        "events": record["events"],
        "digest": record["digest"],
        "fleet": True,
    }
