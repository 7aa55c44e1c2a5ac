"""The chaos soak: one generated plan per seed through the fuzz runner.

Each plan runs under :func:`repro.fuzz.runner.run_scenario`, which
plants a latency-sensitive victim SPU next to an attacker SPU, arms the
plan's fault schedule, fires each antagonist burst at its appointed
time, and runs to the horizon under the
:class:`~repro.faults.InvariantWatchdog` and the
:class:`~repro.faults.OverloadGuard`.  Two invariant families are
asserted:

* the conservation laws (ledger sanity, page and CPU conservation,
  starvation, dead drives), via the watchdog;
* **victim progress**: no 250 ms window of the run may pass without a
  single victim checkpoint.  This is the paper's isolation claim as a
  lower bound — whatever the antagonists and the hardware do, the
  victim keeps moving.

``python -m repro chaos`` is the CI entry point: a bounded multi-seed
soak that exits 1 on the first violation, after writing a repro file
that ``python -m repro fuzz --repro FILE`` replays.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Tuple

from repro.chaos.plan import DEFAULT_HORIZON_US, generate_plan
from repro.fuzz.runner import ScenarioResult, run_scenario
from repro.fuzz.shrink import write_repro
from repro.sim.units import MSEC


def _soak_cell(payload: Tuple[int, int]) -> ScenarioResult:
    """One (seed, horizon) soak — the sweep worker function."""
    seed, horizon_us = payload
    return run_scenario(generate_plan(seed, horizon_us=horizon_us))


def run_soak(
    seeds: List[int],
    horizon_us: int = DEFAULT_HORIZON_US,
    max_workers: Optional[int] = 1,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> List[ScenarioResult]:
    """Generate and run one chaos plan per seed.

    Each seed's plan is independent and each run is a pure function of
    its plan (journals are byte-identical across replays), so seeds fan
    out across worker processes; results come back in seed order
    regardless of which worker finished first.  ``cache=True`` answers
    previously-soaked seeds from the content-addressed sweep cache
    (byte-identical journals, it stores the pure run's result).
    """
    from repro.parallel import Executor, SweepPlan, values

    plan = SweepPlan(max_workers=max_workers, cache=cache,
                     cache_dir=cache_dir)
    payloads = [(seed, horizon_us) for seed in seeds]
    return values(Executor(plan).run(_soak_cell, payloads))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Seeded chaos soak: antagonist bursts + hardware faults"
        " against a victim SPU, with invariants checked throughout.",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="first seed of the soak range; the soak runs seeds"
        " seed..seed+4 unless --seeds overrides (default: 0)",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="explicit seed list, one generated plan each"
        " (overrides --seed)",
    )
    parser.add_argument(
        "--horizon-ms", type=int, default=4000,
        help="simulated horizon per run in milliseconds (default: 4000)",
    )
    parser.add_argument(
        "--repro", default="chaos-repro.json",
        help="where to write the repro file on violation"
        " (default: chaos-repro.json)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to fan seeds across"
        " (default: 1 = in-process; 0 = auto)",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="answer already-soaked (seed, horizon) cells from"
        " the content-addressed sweep cache (default: --no-cache)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="sweep-cache store root (default: $REPRO_CACHE_DIR or"
        " .repro-cache)",
    )
    args = parser.parse_args(argv)

    seeds = args.seeds if args.seeds is not None \
        else list(range(args.seed, args.seed + 5))
    if min(seeds) < 0:
        flag = "--seeds" if args.seeds is not None else "--seed"
        parser.error(f"{flag} must be >= 0, got {min(seeds)}")
    if args.horizon_ms <= 0:
        parser.error(f"--horizon-ms must be positive, got {args.horizon_ms}")
    max_workers = None if args.workers == 0 else args.workers
    results = run_soak(
        seeds, horizon_us=args.horizon_ms * MSEC, max_workers=max_workers,
        cache=args.cache, cache_dir=args.cache_dir,
    )
    failed = False
    for seed, result in zip(seeds, results):
        status = "ok" if result.ok else "VIOLATION"
        print(
            f"seed {seed}: {status} — {result.checkpoints} checkpoints,"
            f" {result.faults_applied} faults"
            f" (+{result.faults_skipped} skipped),"
            f" {result.escalations} escalations,"
            f" {len(result.violations)} violations"
        )
        if not result.ok and not failed:
            failed = True
            write_repro(args.repro, result)
            first = result.violations[0]
            print(f"  first violation: [t={first.time_us}us]"
                  f" {first.name}: {first.detail}")
            print(f"  repro file written to {args.repro}")
    return 1 if failed else 0
