"""The performance harness behind ``python -m repro.bench``.

Four measurements, one JSON artifact (``BENCH_parallel.json``,
schema ``repro.bench/3``):

* **hot path** — events/sec through the simulator core, over two fixed
  probes that stress opposite regimes:

  - ``pmake8`` — the Pmake8 unbalanced placement under SMP and PIso:
    batch work, every event does real kernel/scheduler/disk work.
  - ``interactive`` — four think/burst interactive users under PIso:
    long idle periods where the clock tick dominates, the regime the
    engine's idle fast-forward elides (elided ticks count as executed
    events — the simulated timeline is identical either way).

  Each probe carries its own pre-optimisation baseline; the headline
  ``events_per_sec`` is total events over total seconds across both.
* **per-experiment wall clock** — serial seconds for each registered
  experiment.
* **sweep scaling** — the experiment sweep run serially and through
  :class:`repro.parallel.Executor` at increasing worker counts, with a
  byte-identity check (canonical JSON of every experiment's records)
  between the serial and parallel results, and the executor's own
  stage attribution (dispatch vs compute vs merge seconds) recorded
  per worker count.  Any result divergence is a determinism bug and
  fails the bench.
* **fleet failover cells** — the smoke fleet (one whole-machine crash,
  SLO failover) per scheme, run in-process and through the sweep
  executor, with the same byte-identity requirement on the records.

All sweep-shaped stages (experiment sweep scaling, fleet cells) share
one persistent :class:`repro.parallel.WorkerPool`, so the bench pays
the fork cost once instead of once per stage; with ``--cache`` every
sweep cell is first looked up in the content-addressed sweep cache
(:class:`repro.parallel.SweepCache`), making a *warm* re-run skip all
experiment and fleet computation while producing byte-identical
records.  The hot-path probes always run — they *are* the measurement.

The payload holds ``hot_path`` (the combined headline plus one entry
per probe under ``probes``), ``experiments`` (seconds per experiment,
the serial total, and a short sha256 ``digests`` entry per experiment,
so two artifacts can be compared for byte-identity without carrying
the records), ``sweep`` (per worker count: seconds, speedup and the
:class:`repro.parallel.SweepStats` stage split; plus ``divergence``),
``fleet``, ``stages`` (wall seconds per stage), ``cache`` (hit/miss/put
counts and ``hit_ratio``), ``pool`` (``forks`` staying flat while
``runs_served`` grows is the pool doing its job) and ``host``.  Cached
runs are marked by ``cache.enabled`` plus nonzero ``cache.hits``:
compare wall-clock trajectories cold-to-cold or warm-to-warm only.

Wall-clock numbers are hardware-dependent by nature; the JSON records
the host's CPU count alongside them so trajectories are only compared
like-for-like.
"""

from __future__ import annotations

import hashlib
import os
import platform
import time
from typing import Any, Dict, List, Optional

from repro.api import (
    ExperimentSpec,
    SimulationSpec,
    SpuSpec,
    build,
    names,
    run_experiment,
)
from repro.core.schemes import piso_scheme, smp_scheme
from repro.parallel import (
    Executor,
    SweepCache,
    SweepPlan,
    WorkerPool,
    closure_stats,
    values,
)

#: Per-probe events/sec measured on the pre-optimisation tree (1-CPU
#: container, CPython 3.11): best of 3 on the same probe definitions.
#: ``pmake8`` predates the calendar-queue engine (commit df5f0a7);
#: ``interactive`` was measured on the binary-heap tree the day the
#: probe was added.  The probes are deterministic — only the wall
#: clock under them changes.
BASELINES_EVENTS_PER_SEC = {
    "pmake8": 43263,
    "interactive": 65978,
}

#: Kept for v1 consumers: the original (pmake8) baseline.
BASELINE_EVENTS_PER_SEC = BASELINES_EVENTS_PER_SEC["pmake8"]

#: Worker counts the sweep-scaling stage measures.
SCALING_WORKERS = (2, 4)

#: Minimum acceptable 4-worker sweep speedup on a >=4-core host; CI
#: fails the bench below this (see ``python -m repro.bench --help``).
MIN_SPEEDUP = 1.2


def _pmake_probe(seed: int = 0) -> int:
    """Batch probe; returns events executed (a fixed, seed-pure count)."""
    from repro.experiments.pmake8 import DEFAULT_PMAKE, LIGHT_SPUS, N_SPUS
    from repro.workloads.pmake import create_pmake_files, pmake_job

    events = 0
    for scheme in (smp_scheme(), piso_scheme()):
        sim = build(SimulationSpec(
            ncpus=8,
            memory_mb=44,
            scheme=scheme,
            spus=[SpuSpec(f"user{i + 1}", swap_mount=i) for i in range(N_SPUS)],
            disks=N_SPUS,
            seed=seed,
        ))
        for i, spu in enumerate(sim.spus):
            njobs = 1 if i in LIGHT_SPUS else 2
            for j in range(njobs):
                files = create_pmake_files(
                    sim.fs, mount=i, params=DEFAULT_PMAKE,
                    job_name=f"spu{i + 1}-job{j}",
                )
                sim.spawn(
                    pmake_job(files, DEFAULT_PMAKE), spu,
                    name=f"pmake-spu{i + 1}-{j}",
                )
        events += sim.run()
    return events


def _interactive_probe(seed: int = 0) -> int:
    """Tick-dominated probe: mostly-idle interactive users.

    With 200 ms of think time between half-millisecond bursts, clock
    ticks outnumber useful events ~20:1 — the idle fast-forward elides
    the tick runs (counting them as executed), so this probe tracks
    the optimisation the batch probe cannot see.
    """
    from repro.workloads.interactive import InteractiveParams, interactive_user

    sim = build(SimulationSpec(
        ncpus=4,
        memory_mb=32,
        scheme=piso_scheme(),
        spus=[SpuSpec(f"user{i + 1}") for i in range(4)],
        disks=1,
        seed=seed,
    ))
    params = InteractiveParams(bursts=6000, think_ms=200.0, burst_ms=0.5)
    for i, spu in enumerate(sim.spus):
        sim.spawn(interactive_user(params), spu, name=f"int{i}")
    return sim.run()


_PROBES = {
    "pmake8": _pmake_probe,
    "interactive": _interactive_probe,
}


def bench_hot_path(reps: int = 3, seed: int = 0) -> Dict[str, Any]:
    """Best-of-``reps`` events/sec per probe, plus the combined headline."""
    probes: Dict[str, Any] = {}
    total_events = 0
    total_s = 0.0
    for name, probe in _PROBES.items():
        best_s = float("inf")
        events = 0
        for _ in range(reps):
            start = time.perf_counter()
            events = probe(seed=seed)
            best_s = min(best_s, time.perf_counter() - start)
        rate = events / best_s
        baseline = BASELINES_EVENTS_PER_SEC[name]
        probes[name] = {
            "events": events,
            "seconds": round(best_s, 4),
            "events_per_sec": round(rate, 1),
            "baseline_events_per_sec": baseline,
            "improvement_percent": round(100.0 * (rate / baseline - 1.0), 1),
        }
        total_events += events
        total_s += best_s
    combined = total_events / total_s
    combined_baseline = round(
        total_events / sum(
            probes[n]["events"] / BASELINES_EVENTS_PER_SEC[n] for n in probes
        ),
        1,
    )
    return {
        "probes": probes,
        # v1-shaped flat fields, now describing the combined run.
        "events": total_events,
        "seconds": round(total_s, 4),
        "events_per_sec": round(combined, 1),
        "baseline_events_per_sec": combined_baseline,
        "improvement_percent": round(
            100.0 * (combined / combined_baseline - 1.0), 1
        ),
    }


def bench_experiments(
    sections: List[str], seed: int = 0, cache: Optional[SweepCache] = None,
) -> Dict[str, Any]:
    """Serial wall clock per experiment (also the serial sweep total).

    With a ``cache``, each cell is answered from the store when its
    (name, seed, code) key is present — the warm-run fast path — and
    recorded on a miss; the result bytes are identical either way.
    """
    per_figure: Dict[str, Any] = {}
    canonical: Dict[str, str] = {}
    digests: Dict[str, str] = {}
    total = 0.0
    hits = 0
    executor = Executor(SweepPlan(max_workers=1), cache=cache)
    for name in sections:
        start = time.perf_counter()
        outcomes = executor.run(
            run_experiment, [ExperimentSpec(name=name, seed=seed)]
        )
        elapsed = time.perf_counter() - start
        result = values(outcomes)[0]
        hits += executor.stats.cache_hits
        total += elapsed
        per_figure[name] = {"seconds": round(elapsed, 3)}
        canonical[name] = result.canonical_json()
        digests[name] = hashlib.sha256(
            canonical[name].encode("utf-8")
        ).hexdigest()[:16]
    return {"per_figure": per_figure, "serial_seconds": round(total, 3),
            "canonical": canonical, "digests": digests, "cache_hits": hits}


def bench_sweep_scaling(
    sections: List[str],
    serial_canonical: Dict[str, str],
    seed: int = 0,
    workers: tuple = SCALING_WORKERS,
    pool: Optional[WorkerPool] = None,
    cache: Optional[SweepCache] = None,
) -> Dict[str, Any]:
    """The same sweep through the executor at each worker count.

    Results must match the serial run byte-for-byte; ``divergence``
    names any experiment whose canonical JSON differs.  Each worker
    count also records the executor's stage attribution — parent time
    dispatching work, summed worker compute time, parent time merging
    results — so dispatch/merge overhead has its own trajectory.
    ``pool`` shares worker processes across the ladder (and with the
    fleet stage); ``cache`` answers unchanged cells from the store
    (their bytes came from a pure run, so the identity check holds
    vacuously rather than falsely).
    """
    payloads = [ExperimentSpec(name=name, seed=seed) for name in sections]
    out: Dict[str, Any] = {"workers": {}, "divergence": []}
    for n in workers:
        executor = Executor(SweepPlan(max_workers=n), pool=pool, cache=cache)
        start = time.perf_counter()
        outcomes = executor.run(run_experiment, payloads)
        results = values(outcomes)
        elapsed = time.perf_counter() - start
        diverged = [
            r.name for r in results
            if r.canonical_json() != serial_canonical[r.name]
        ]
        stats = executor.stats
        out["workers"][str(n)] = {
            "seconds": round(elapsed, 3),
            "dispatch_s": round(stats.dispatch_s, 4),
            "compute_s": round(stats.compute_s, 4),
            "merge_s": round(stats.merge_s, 4),
            "transport": stats.transport,
            "batch_size": stats.batch_size,
            "retried_cells": stats.retried_cells,
            "pool_reuse": stats.pool_reuse,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
        }
        for name in diverged:
            if name not in out["divergence"]:
                out["divergence"].append(name)
    return out


def bench_fleet(
    seed: int = 0, workers: int = 2,
    pool: Optional[WorkerPool] = None, cache: Optional[SweepCache] = None,
) -> Dict[str, Any]:
    """Fleet failover cells through the sweep executor, serial vs parallel.

    Runs the smoke fleet (one whole-machine crash) per scheme twice —
    in-process and fanned across workers — and compares the records
    byte-for-byte.  ``divergence`` names any scheme whose parallel
    record differs from the serial one; any entry is a determinism bug.
    With a ``cache`` both legs share the same content addresses, so
    whichever leg runs first populates the store and the other is
    answered from it — the identity check then holds by construction
    (the cached bytes *are* a previous pure run's).  The honest
    serial-vs-worker comparison comes from uncached runs; CI keeps one.
    """
    from repro.fleet.__main__ import smoke_spec
    from repro.fleet.runner import run_fleet_record

    schemes = ("smp", "piso")
    payloads = [smoke_spec(scheme=s, seed=seed).to_dict() for s in schemes]
    serial_executor = Executor(SweepPlan(max_workers=1), cache=cache)
    start = time.perf_counter()
    serial = values(serial_executor.run(run_fleet_record, payloads))
    serial_s = time.perf_counter() - start
    serial_hits = serial_executor.stats.cache_hits
    executor = Executor(SweepPlan(max_workers=workers), pool=pool, cache=cache)
    start = time.perf_counter()
    outcomes = executor.run(run_fleet_record, payloads)
    parallel_s = time.perf_counter() - start
    parallel = values(outcomes)
    divergence = [
        scheme for scheme, a, b in zip(schemes, serial, parallel) if a != b
    ]
    return {
        "schemes": list(schemes),
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "digests": {r["scheme"]: r["digest"] for r in serial},
        "violations": sorted({v for r in serial for v in r["violations"]}),
        "divergence": divergence,
        "cache_hits": serial_hits + executor.stats.cache_hits,
        "pool_reuse": executor.stats.pool_reuse,
    }


def run_bench(
    quick: bool = False,
    seed: int = 0,
    reps: Optional[int] = None,
    workers: tuple = SCALING_WORKERS,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """The full bench; returns the ``BENCH_parallel.json`` payload.

    One :class:`WorkerPool` is shared by every sweep-shaped stage (the
    scaling ladder and the fleet cells) — the fork cost is paid once
    per bench, and ``pool.forks`` vs ``pool.runs_served`` in the
    payload shows the reuse.  ``cache=True`` opens the sweep cache and
    threads it through every stage except the hot-path probes.
    """
    sections = names(quick_only=quick)
    reps = reps if reps is not None else (1 if quick else 3)

    sweep_cache = SweepCache(cache_dir) if cache else None
    pool = WorkerPool(max_workers=max(tuple(workers) + (2,)))
    stages: Dict[str, float] = {}
    try:
        start = time.perf_counter()
        hot = bench_hot_path(reps=reps, seed=seed)
        stages["hot_path"] = round(time.perf_counter() - start, 3)

        start = time.perf_counter()
        serial = bench_experiments(sections, seed=seed, cache=sweep_cache)
        stages["experiments"] = round(time.perf_counter() - start, 3)

        start = time.perf_counter()
        scaling = bench_sweep_scaling(
            sections, serial["canonical"], seed=seed, workers=workers,
            pool=pool, cache=sweep_cache,
        )
        stages["sweep"] = round(time.perf_counter() - start, 3)

        start = time.perf_counter()
        fleet = bench_fleet(seed=seed, pool=pool, cache=sweep_cache)
        stages["fleet"] = round(time.perf_counter() - start, 3)
        pool_payload = {"forks": pool.forks, "runs_served": pool.runs_served}
    finally:
        pool.shutdown()

    serial_s = serial["serial_seconds"]
    for stats in scaling["workers"].values():
        stats["speedup"] = round(serial_s / max(stats["seconds"], 1e-9), 2)

    if sweep_cache is not None:
        cache_stats = sweep_cache.stats_dict()
        probed = cache_stats["hits"] + cache_stats["misses"]
        cache_payload = {
            "enabled": True,
            "dir": sweep_cache.root,
            "hit_ratio": round(cache_stats["hits"] / probed, 4) if probed
            else 0.0,
        }
        cache_payload.update(cache_stats)
        # How many key derivations used a function-precise closure
        # digest vs the whole-tree fallback (see repro.parallel.cache).
        cache_payload["closure"] = closure_stats()
    else:
        cache_payload = {"enabled": False, "hits": 0, "misses": 0,
                         "errors": 0, "puts": 0, "hit_ratio": 0.0,
                         "closure": {"precise": 0, "fallback": 0}}

    return {
        "schema": "repro.bench/3",
        "quick": quick,
        "seed": seed,
        "hot_path": hot,
        "experiments": {
            "sections": sections,
            "per_figure": serial["per_figure"],
            "serial_seconds": serial_s,
            "digests": serial["digests"],
            "cache_hits": serial["cache_hits"],
        },
        "sweep": {
            "workers": scaling["workers"],
            "divergence": scaling["divergence"],
        },
        "fleet": fleet,
        "stages": stages,
        "cache": cache_payload,
        "pool": pool_payload,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
    }


def format_report(payload: Dict[str, Any]) -> str:
    hot = payload["hot_path"]
    lines = [
        f"hot path: {hot['events_per_sec']:,.0f} events/s combined"
        f" ({hot['events']} events in {hot['seconds']}s;"
        f" baseline {hot['baseline_events_per_sec']:,.0f} ->"
        f" {hot['improvement_percent']:+.1f}%)",
    ]
    for name, probe in hot.get("probes", {}).items():
        lines.append(
            f"  {name}: {probe['events_per_sec']:,.0f} events/s"
            f" (baseline {probe['baseline_events_per_sec']:,} ->"
            f" {probe['improvement_percent']:+.1f}%)"
        )
    lines.append(
        f"serial sweep: {payload['experiments']['serial_seconds']}s over"
        f" {len(payload['experiments']['sections'])} experiments"
    )
    for name, stats in payload["experiments"]["per_figure"].items():
        lines.append(f"  {name}: {stats['seconds']}s")
    for n, stats in payload["sweep"]["workers"].items():
        retried = stats.get("retried_cells", 0)
        lines.append(
            f"sweep at {n} workers: {stats['seconds']}s"
            f" ({stats['speedup']}x; host has {payload['host']['cpu_count']}"
            " CPUs" + (f"; {retried} cell(s) retried" if retried else "") + ")"
        )
        if "dispatch_s" in stats:
            lines.append(
                f"  stages: dispatch {stats['dispatch_s']}s,"
                f" compute {stats['compute_s']}s (worker-summed),"
                f" merge {stats['merge_s']}s"
                f" [{stats.get('transport', '?')},"
                f" batch={stats.get('batch_size', '?')}]"
            )
    divergence = payload["sweep"]["divergence"]
    lines.append(
        "serial-vs-parallel results: "
        + ("BYTE-IDENTICAL" if not divergence else f"DIVERGED: {divergence}")
    )
    fleet = payload.get("fleet")
    if fleet is not None:
        fleet_diverged = fleet["divergence"]
        lines.append(
            f"fleet failover cells ({'/'.join(fleet['schemes'])}):"
            f" serial {fleet['serial_seconds']}s,"
            f" parallel {fleet['parallel_seconds']}s; "
            + ("BYTE-IDENTICAL" if not fleet_diverged
               else f"DIVERGED: {fleet_diverged}")
            + (f"; violations: {fleet['violations']}"
               if fleet["violations"] else "")
        )
    pool = payload.get("pool")
    if pool is not None:
        lines.append(
            f"worker pool: {pool['forks']} process(es) forked for"
            f" {pool['runs_served']} sweep(s)"
        )
    cache = payload.get("cache")
    if cache is not None and cache.get("enabled"):
        lines.append(
            f"sweep cache: {cache['hits']} hit(s), {cache['misses']}"
            f" miss(es), {cache['puts']} stored"
            f" (hit ratio {cache['hit_ratio']:.0%})"
        )
    return "\n".join(lines)
