"""Parallel sweep execution for independent simulation runs."""

from repro.parallel.cache import SweepCache, default_cache_dir
from repro.parallel.executor import (
    DEFAULT_WORKER_CAP,
    Executor,
    RunOutcome,
    SweepError,
    SweepPlan,
    SweepStats,
    resolve_workers,
    values,
)
from repro.parallel.pool import WorkerPool

__all__ = [
    "DEFAULT_WORKER_CAP",
    "Executor",
    "RunOutcome",
    "SweepCache",
    "SweepError",
    "SweepPlan",
    "SweepStats",
    "WorkerPool",
    "default_cache_dir",
    "resolve_workers",
    "values",
]
