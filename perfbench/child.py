"""One benchmark child process: set up, run its passes, write a result.

Run by the parent process as ``python -m perfbench.child``; each timed pass
lives in a fresh child so that set-up cost and peak memory are
measured per process.  Modes:

* ``run`` — the untraced passes.  ``fs_copy``, ``tick_idle`` and
  ``batch_mix`` run the pass twice: the first pass is the ``cold`` one
  (``wall_s``), the repeat in the same process the ``warm`` one
  (``warm_wall_s``).  ``sweep`` runs one cold sweep that fills the
  cache directory it is given.
* ``warm`` — ``sweep`` only: one sweep answered from a filled cache
  directory, in a new process as a user's re-run would be.
* ``traced`` — one pass with every probe installed, for the per-layer
  metrics.  For ``sweep`` it is a cold and a warm executor sweep
  (parent-side probes; the workers were forked untraced during set-up)
  followed by a serial in-process pass over every experiment.
* ``pin`` — every cell of every workload in-process, for
  ``--update-expected``.

The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

from perfbench.catalogue import layer_metrics
from perfbench.trace import EVENT_PROBES, Tracer
from perfbench.workloads import Session, parallel_metrics


def _timed(kind: str, fn, *args) -> Dict[str, Any]:
    start = time.perf_counter()
    record = fn(*args)
    record.update(kind=kind, wall_s=time.perf_counter() - start)
    return record


def untraced_passes(session: Session, mode: str,
                    cache_dir: str) -> List[Dict[str, Any]]:
    """The passes of a ``run``, ``warm`` or ``pin`` child."""
    with Tracer(EVENT_PROBES) as tracer:
        if session.workload == "sweep":
            kind = "warm" if mode == "warm" else "cold"
            return [_timed(kind, session.run_sweep, cache_dir, tracer)]
        if mode == "pin":
            return [_timed("pin", session.run_cells, tracer)]
        return [_timed(kind, session.run_cells, tracer)
                for kind in ("cold", "warm")]


def traced_passes(session: Session, cache_dir: str) -> Dict[str, Any]:
    """The passes of a ``traced`` child, their per-layer metrics and trace."""
    passes: List[Dict[str, Any]] = []
    parallel: Dict[str, float] = {}
    with Tracer() as tracer:
        if session.workload == "sweep":
            cold = _timed("traced", session.run_sweep, cache_dir, tracer)
            tracer.pass_id += 1
            warm = _timed("traced_warm", session.run_sweep, cache_dir, tracer)
            tracer.pass_id += 1
            cache = {k: cold["cache"][k] + warm["cache"][k]
                     for k in cold["cache"]}
            parallel = parallel_metrics(cold, session.pool, cache)
            passes += [cold, warm]
        passes.append(_timed("traced" if not passes else "traced_serial",
                             session.run_cells, tracer))
    trace = tracer.to_dict()
    return {"passes": passes,
            "layer": layer_metrics(trace, passes[-1]["cells"], parallel),
            "trace": trace}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("run", "warm", "traced", "pin"))
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent launched us")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    result: Dict[str, Any] = {}
    status = 0
    try:
        session = Session(args.workload, args.seed)
        result["setup_s"] = time.monotonic() - args.launched
        try:
            if args.mode == "traced":
                result.update(traced_passes(session, args.cache_dir))
            else:
                result["passes"] = untraced_passes(session, args.mode,
                                                   args.cache_dir)
        finally:
            session.close()
    except Exception:
        result["error"] = traceback.format_exc()
        status = 1
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mb"] = peak_kb / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
