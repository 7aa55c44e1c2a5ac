"""``python -m repro fleet`` — the fleet failover smoke gate.

Runs a small seeded fleet (two machines, one whole-machine crash)
in-process, then sends one copy of its spec per ``--workers`` (at
least 2) through the parallel sweep executor, so every copy runs in a
worker process, and gates on the two things CI cares about:

* the fleet watchdog found no conservation violations (no SPU lost,
  progress and capacity conserved across the failover), and
* every parallel record is byte-identical to the serial one (the
  fleet run is a pure function of its spec, wherever it executes).

``--scheme``, ``--seed``, ``--machines``, ``--crash-at`` and
``--horizon`` reshape the smoke fleet; ``--json`` dumps the records.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.faults.fleet import FleetFaultPlan, MachineCrash
from repro.fleet.runner import run_fleet_record
from repro.fleet.spec import (
    FLEET_SCHEMES,
    FleetMachineSpec,
    FleetSpec,
    FleetSpuSpec,
)
from repro.parallel import Executor, SweepPlan
from repro.sim.units import MSEC


def smoke_spec(
    scheme: str = "piso",
    seed: int = 0,
    machines: int = 2,
    crash_at_us: int = 200 * MSEC,
    horizon_us: int = 600 * MSEC,
) -> FleetSpec:
    """The canonical smoke fleet: the last machine crashes mid-run.

    Every machine hosts a moderately-loaded pair of SPUs; the crashed
    machine's pair has one migratable service (low SLO floor) and one
    strict tenant that survivors may have to shed — so one crash
    exercises admit, degrade *and* shed paths deterministically.
    """
    shapes = [FleetMachineSpec(ncpus=4, memory_mb=16) for _ in range(machines)]
    spus: List[FleetSpuSpec] = []
    placement = {}
    for i in range(machines - 1):
        for kind, demand in (("svc", 1.5), ("batch", 1.5)):
            spu = FleetSpuSpec(
                name=f"{kind}-{i}", demand_cpus=demand,
                slo_min_fraction=0.5, jobs=2, rounds=400, compute_us=5000,
            )
            spus.append(spu)
            placement[spu.name] = i
    victim = machines - 1
    for spu in (
        FleetSpuSpec(name=f"svc-{victim}", demand_cpus=1.5,
                     slo_min_fraction=0.5, jobs=2, rounds=400,
                     compute_us=5000),
        FleetSpuSpec(name=f"scratch-{victim}", demand_cpus=2.0,
                     slo_min_fraction=0.9, jobs=2, rounds=400,
                     compute_us=5000),
    ):
        spus.append(spu)
        placement[spu.name] = victim
    faults = FleetFaultPlan([MachineCrash(at_us=crash_at_us, machine=victim)])
    return FleetSpec(
        machines=shapes, spus=spus, placement=placement,
        scheme=scheme, seed=seed, horizon_us=horizon_us, faults=faults,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="fleet failover smoke: watchdog + serial/parallel identity",
    )
    parser.add_argument("--scheme", choices=FLEET_SCHEMES, default="piso")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--machines", type=int, default=2)
    parser.add_argument("--crash-at", type=int, default=200 * MSEC,
                        metavar="US")
    parser.add_argument("--horizon", type=int, default=600 * MSEC,
                        metavar="US")
    parser.add_argument("--workers", type=int, default=2,
                        help="sweep workers for the parallel leg; at least 2,"
                        " or the leg would run in-process")
    parser.add_argument("--json", action="store_true",
                        help="print the serial record as JSON")
    args = parser.parse_args(argv)
    if args.workers < 2:
        parser.error(f"--workers must be at least 2, got {args.workers}: with"
                     " fewer, the serial-vs-parallel check compares two"
                     " in-process runs")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.machines < 1:
        parser.error(f"--machines must be >= 1, got {args.machines}")
    if args.horizon < 1:
        parser.error(f"--horizon must be >= 1, got {args.horizon}")
    if not 0 <= args.crash_at <= args.horizon:
        # A crash past the horizon never fires, and the smoke would pass
        # without testing failover.
        parser.error(f"--crash-at must be in [0, --horizon={args.horizon}],"
                     f" got {args.crash_at}")

    spec = smoke_spec(
        scheme=args.scheme, seed=args.seed, machines=args.machines,
        crash_at_us=args.crash_at, horizon_us=args.horizon,
    )
    payload = spec.to_dict()
    serial = run_fleet_record(payload)
    # One copy per worker: the executor runs a one-cell sweep in-process.
    outcomes = Executor(SweepPlan(max_workers=args.workers)).run(
        run_fleet_record, [payload] * args.workers
    )
    errored = next((o for o in outcomes if not o.ok), None)
    differs = next(
        (o.value for o in outcomes if o.ok and o.value != serial), None
    )

    if args.json:
        print(json.dumps(serial, indent=2, sort_keys=True))

    failed = False
    if serial["violations"]:
        print(
            f"FAIL: fleet watchdog violations: {serial['violations']}",
            file=sys.stderr,
        )
        failed = True
    if errored is not None:
        print(
            f"FAIL: parallel cell errored: {errored.error}",
            file=sys.stderr,
        )
        failed = True
    elif differs is not None:
        print(
            "FAIL: serial and parallel fleet records differ"
            f" (serial digest {serial['digest']},"
            f" parallel digest {differs['digest']})",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(
        f"fleet smoke ok: scheme={args.scheme} seed={args.seed}"
        f" machines={args.machines} digest={serial['digest']}"
        f" decisions={len(serial['decisions'])} shed={serial['shed']}"
        f" events={serial['events']}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main(sys.argv[1:]))
