"""The four workloads: what set-up prepares and what one pass runs.

Everything here runs inside a child process (see :mod:`perfbench.child`)
and drives the simulator only through its public surface:
``repro.api`` for specs, experiments and sweeps, ``repro.workloads``
for the interactive user, ``repro.metrics`` for the record projection.

A pass returns its *cells*: for each experiment (or, for
``tick_idle``, the one interactive simulation) the sha256 of its
canonical records and the number of simulation events it executed.
The parent process compares them with the pins in ``expected.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import time
from typing import Any, Dict, List, Optional

from perfbench.trace import Tracer

WORKLOADS = ("fs_copy", "tick_idle", "batch_mix", "sweep")

#: The in-process experiment workloads and the cells one pass runs.
#: ``batch_mix`` is every cheap registered experiment: together they
#: reach every layer, including the only ``net`` and ``fleet`` traffic.
EXPERIMENT_CELLS = {
    "fs_copy": ("table3",),
    "batch_mix": ("pmake8", "fig5", "fig7", "table4", "network",
                  "antagonists", "ablations", "fleet_isolation"),
}

#: Bursts per interactive user in ``tick_idle``.  With 200 ms think
#: time and 0.5 ms bursts a pass is mostly clock ticks over idle CPUs;
#: 20,000 bursts make one pass about 2.3 s on a 2-core x86 host under
#: CPython 3.11, long enough to time.
TICK_BURSTS = 20000

#: Worker processes for ``sweep``: the host's 2 cores.
SWEEP_WORKERS = 2

#: Modules a pass imports lazily from inside functions; set-up imports
#: them so their import time counts as set-up, not as the pass.  Only
#: ``sweep`` derives cache keys, which need the effect analysis.
_LAZY_IMPORTS = ("repro.sanitizer", "repro.cpu.stride", "repro.kernel.gang",
                 "repro.fleet.runner")
_SWEEP_IMPORTS = ("repro.lint.effects",)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Session:
    """What set-up leaves for the passes of one child process.

    Set-up imports every module the pass calls and loads the experiment
    registry; for ``sweep`` it also forks the worker pool.  Call
    :meth:`close` to stop the pool.  ``cells`` narrows a pass to a
    subset of its cells, and :attr:`tick_bursts` shortens ``tick_idle``;
    the self-tests use both for small passes.
    """

    def __init__(self, workload: str, seed: int,
                 cells: Optional[List[str]] = None):
        import repro  # noqa: F401
        import repro.metrics  # noqa: F401
        import repro.workloads  # noqa: F401
        from repro import api

        for name in _LAZY_IMPORTS + (_SWEEP_IMPORTS if workload == "sweep" else ()):
            importlib.import_module(name)
        self.workload = workload
        self.seed = seed
        if cells is None:
            if workload in ("sweep", "pin"):
                cells = api.names() + (["tick_idle"] if workload == "pin" else [])
            elif workload == "tick_idle":
                cells = ["tick_idle"]
            else:
                cells = list(EXPERIMENT_CELLS[workload])
        #: The cells one pass produces, in pass order.
        self.cells = cells
        self.tick_bursts = TICK_BURSTS
        self.pool = None
        if workload == "sweep":
            # Results come back over the pipes, not /dev/shm, so the
            # benchmark writes only inside its own directory.
            self.pool = api.WorkerPool(max_workers=SWEEP_WORKERS,
                                       transport="pipe")
            self.pool.ensure(SWEEP_WORKERS)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            self.pool = None

    # --- passes --------------------------------------------------------------

    def run_cells(self, tracer: Tracer) -> Dict[str, Any]:
        """Run every cell in-process, one span per cell."""
        out: Dict[str, Dict[str, Any]] = {}
        with tracer.span("pass", "residual", "pass"):
            for name in self.cells:
                events = tracer.events()
                start = time.perf_counter()
                with tracer.span("cell", "experiments", name):
                    text = (_tick_idle(self.seed, self.tick_bursts)
                            if name == "tick_idle"
                            else _experiment(name, self.seed))
                out[name] = {"sha256": digest(text),
                             "events": tracer.events() - events,
                             "s": time.perf_counter() - start}
        return {"cells": out}

    def run_sweep(self, cache_dir: str, tracer: Tracer) -> Dict[str, Any]:
        """One sweep of every registered experiment through the executor."""
        from repro.api import (Executor, ExperimentSpec, SweepCache,
                               SweepPlan, run_experiment, sweep_values)

        cache = SweepCache(cache_dir)
        executor = Executor(SweepPlan(max_workers=SWEEP_WORKERS),
                            pool=self.pool, cache=cache)
        specs = [ExperimentSpec(name=n, seed=self.seed) for n in self.cells]
        with tracer.span("pass", "residual", "pass"):
            outcomes = executor.run(run_experiment, specs)
        results = sweep_values(outcomes)
        return {
            "cells": {r.name: {"sha256": digest(r.canonical_json()),
                               "events": None} for r in results},
            "stats": dataclasses.asdict(executor.stats),
            "critical_cell_s": max(o.elapsed_s for o in outcomes),
            "cache": cache.stats_dict(),
        }


def _experiment(name: str, seed: int) -> str:
    from repro.api import ExperimentSpec, run_experiment

    return run_experiment(ExperimentSpec(name=name, seed=seed)).canonical_json()


def _tick_idle(seed: int, bursts: int) -> str:
    """Four interactive users under PIso; returns the canonical records."""
    from repro.api import SimulationSpec, SpuSpec, build, piso_scheme
    from repro.metrics import to_records
    from repro.workloads import InteractiveParams, interactive_user

    sim = build(SimulationSpec(
        ncpus=4,
        memory_mb=32,
        scheme=piso_scheme(),
        spus=[SpuSpec(f"user{i + 1}") for i in range(4)],
        disks=1,
        seed=seed,
    ))
    params = InteractiveParams(bursts=bursts, think_ms=200.0,
                               burst_ms=0.5)
    for i, spu in enumerate(sim.spus):
        sim.spawn(interactive_user(params), spu, name=f"int{i}")
    sim.run()
    return json.dumps(to_records(sim.results()), sort_keys=True)


def parallel_metrics(cold: Dict[str, Any], pool: Any,
                     cache: Dict[str, int]) -> Dict[str, float]:
    """The executor's ``parallel.*`` metrics of a traced cold+warm sweep."""
    stats = cold["stats"]
    probed = cache["hits"] + cache["misses"]
    return {
        "parallel.cells": stats["cells"],
        "parallel.dispatch_s": stats["dispatch_s"],
        "parallel.compute_s": stats["compute_s"],
        "parallel.merge_s": stats["merge_s"],
        "parallel.retried_cells": stats["retried_cells"],
        "parallel.pool.forks": pool.forks,
        "parallel.pool.runs_served": pool.runs_served,
        "parallel.cache.hits": cache["hits"],
        "parallel.cache.misses": cache["misses"],
        "parallel.cache.puts": cache["puts"],
        "parallel.cache.hit_ratio": cache["hits"] / probed if probed else 0.0,
        "parallel.spooled_payloads": stats["spooled_payloads"],
        "parallel.shm_spills": stats["shm_spills"],
        "parallel.critical_cell_s": cold["critical_cell_s"],
    }
