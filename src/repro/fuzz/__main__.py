"""``python -m repro.fuzz`` — generative scenario fuzzing campaigns.

Two modes:

* **campaign** (default): run seeds through generate → run → judge,
  sharded across workers, appending every verdict to a JSONL corpus.
  Interrupting is safe — re-running the same command resumes from the
  corpus and converges on the byte-identical file.  Exits 1 if any
  requested seed's verdict is not ``ok``; every violation is shrunk to
  a minimal ``fuzz-repro-<seed>.json``.
* **replay** (``--repro FILE``): re-run one repro file's scenario and
  exit 1 if the recorded violation still reproduces.  Fleet repro
  files (``fleet-repro-<seed>.json``, written by ``--fleet``
  campaigns) replay through :func:`repro.fleet.run_fleet`.

``--fleet`` switches the campaign's cell from single-machine
scenarios to randomly drawn multi-machine fleets with whole-machine
crash/recover/partition schedules, judged by the fleet watchdog.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.fuzz.campaign import CampaignConfig, run_campaign
from repro.fuzz.shrink import replay
from repro.sim.units import MSEC


def main(argv: List[str] = sys.argv[1:]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.fuzz",
        description="Generative scenario fuzzer: random machines, workload"
        " mixes, antagonist bursts, and fault schedules, judged by the"
        " invariant/contract/sanitizer oracle stack.",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="first seed of the campaign range (default: 0)",
    )
    parser.add_argument(
        "--count", type=int, default=50,
        help="number of consecutive seeds to fuzz (default: 50)",
    )
    parser.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="explicit seed list (overrides --seed/--count)",
    )
    parser.add_argument(
        "--corpus", default="fuzz-corpus.jsonl",
        help="append-only JSONL corpus; doubles as the resume checkpoint"
        " (default: fuzz-corpus.jsonl)",
    )
    parser.add_argument(
        "--horizon-ms", type=int, default=1000,
        help="simulated horizon per scenario in milliseconds"
        " (default: 1000; 0 = let each seed draw its own)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to fan cells across"
        " (default: 1 = in-process; 0 = auto)",
    )
    parser.add_argument(
        "--timeout-s", type=float, default=120.0,
        help="wall-clock limit per cell before its worker is killed"
        " and the cell retried (default: 120)",
    )
    parser.add_argument(
        "--budget-s", type=float, default=None,
        help="wall-clock budget for the whole campaign; stops cleanly"
        " between shards, resumable (default: none)",
    )
    parser.add_argument(
        "--simsan", action="store_true",
        help="force the SIMSAN runtime sanitizer on for every cell",
    )
    parser.add_argument(
        "--fleet", action="store_true",
        help="fuzz multi-machine fleets (whole-machine crashes, SPU"
        " failover, SLO admission) instead of single-machine scenarios;"
        " failures are written as full-spec fleet-repro-<seed>.json",
    )
    parser.add_argument(
        "--differential", action="store_true",
        help="re-run ok worker cells in-process and flag any"
        " serial-vs-parallel record divergence",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="write repro files without ddmin-minimising them first",
    )
    parser.add_argument(
        "--shrink-budget", type=int, default=48,
        help="simulation runs each shrink may spend (default: 48)",
    )
    parser.add_argument(
        "--repro", default=None, metavar="FILE",
        help="replay mode: re-run FILE's scenario and exit 1 if its"
        " violation still reproduces",
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="answer already-fuzzed (seed, horizon, simsan) cells from"
        " the content-addressed sweep cache; corpus bytes are identical"
        " either way (default: --no-cache)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="sweep-cache store root (default: $REPRO_CACHE_DIR or"
        " .repro-cache)",
    )
    args = parser.parse_args(argv)

    if args.repro is not None:
        import json

        with open(args.repro) as fh:
            payload = json.load(fh)
        if "fleet_spec" in payload:
            from repro.fleet import FleetSpec, run_fleet

            result = run_fleet(FleetSpec.from_dict(payload["fleet_spec"]))
            print(f"replayed {args.repro}: {result.verdict}"
                  f" ({sum(result.progress.values())} durable rounds,"
                  f" {len(result.violations)} violations)")
            for violation in result.violations:
                print(f"  [t={violation.time_us}us]"
                      f" {violation.name}: {violation.detail}")
            return 1 if result.violations else 0
        result = replay(args.repro, simsan=True if args.simsan else None)
        print(f"replayed {args.repro}: {result.verdict}"
              f" ({result.checkpoints} checkpoints,"
              f" {len(result.violations)} violations)")
        for violation in result.violations:
            print(f"  [t={violation.time_us}us]"
                  f" {violation.name}: {violation.detail}")
        return 1 if result.violations else 0

    seeds = args.seeds if args.seeds is not None \
        else list(range(args.seed, args.seed + args.count))
    if any(seed < 0 for seed in seeds):
        flag = "--seeds" if args.seeds is not None else "--seed"
        parser.error(f"{flag} must be >= 0, got {min(seeds)}")
    if args.horizon_ms < 0:
        parser.error(f"--horizon-ms must be >= 0, got {args.horizon_ms}")
    config = CampaignConfig(
        seeds=seeds,
        corpus_path=args.corpus,
        workers=None if args.workers == 0 else args.workers,
        timeout_s=args.timeout_s,
        horizon_us=args.horizon_ms * MSEC if args.horizon_ms else None,
        simsan=True if args.simsan else None,
        differential=args.differential,
        shrink=not args.no_shrink,
        shrink_budget=args.shrink_budget,
        budget_s=args.budget_s,
        fleet=args.fleet,
        cache=args.cache,
        cache_dir=args.cache_dir,
    )
    report = run_campaign(config)
    for line in report.summary():
        print(line)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
