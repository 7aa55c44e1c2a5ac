"""Run registered experiments and print paper-vs-measured tables.

This is the ``experiments`` subcommand behind ``python -m repro`` (and
still runnable as ``python -m repro.experiments.runner``).  It iterates
the experiment registry — every module in :mod:`repro.experiments`
registers its driver with :func:`repro.api.experiment` — fans the
selected experiments across worker processes with an
:class:`repro.parallel.Executor`, and prints each experiment's rendered
report in registration order, whatever order the workers finished in.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import ExperimentResult, ExperimentSpec, get, names, run_experiment
from repro.parallel import Executor, SweepPlan, values


def run_sections_with_stats(
    sections: List[str],
    seed: int = 0,
    max_workers: Optional[int] = 1,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> "tuple[List[ExperimentResult], int]":
    """Run the named experiments, in the order requested.

    Returns the results and the sweep's crash/timeout retry count;
    ``cache=True`` answers unchanged (name, seed) cells from the
    content-addressed sweep cache.
    """
    plan = SweepPlan(max_workers=max_workers, cache=cache,
                     cache_dir=cache_dir)
    payloads = [ExperimentSpec(name=name, seed=seed) for name in sections]
    outcomes = Executor(plan).run(run_experiment, payloads)
    return values(outcomes), sum(o.retries for o in outcomes)


def main(argv: List[str] = sys.argv[1:]) -> int:
    """Run everything (or the sections named on the command line)."""
    known = names()
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "sections",
        nargs="*",
        metavar="section",
        help=f"sections to run (default: all); choose from {sorted(known)}",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="SECTION",
        help="run only this section (repeatable); equivalent to naming"
        " it positionally",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="base RNG seed shared by every experiment (default: 0)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes to fan experiments across"
        " (default: 1 = in-process; 0 = auto)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write every experiment's flat records as JSON",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="answer unchanged (section, seed) cells from the"
        " content-addressed sweep cache (default: off)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="sweep-cache directory (default: .repro-cache or"
        " $REPRO_CACHE_DIR)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    named = list(args.sections) + list(args.only or [])
    chosen = named if named else list(known)
    for name in chosen:
        if name not in known:
            print(f"unknown section {name!r}; choose from {sorted(known)}")
            return 2

    max_workers = None if args.workers == 0 else args.workers
    results, retried = run_sections_with_stats(
        chosen, seed=args.seed, max_workers=max_workers,
        cache=args.cache, cache_dir=args.cache_dir,
    )
    for result in results:
        print(get(result.name).report(result.data))
        print()
    if retried:
        print(f"({retried} sweep cell(s) retried after worker"
              " crash/timeout)")

    if args.json is not None:
        import json

        with open(args.json, "w") as f:
            json.dump([r.payload() for r in results], f, indent=2, sort_keys=True)
        print(f"records written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
