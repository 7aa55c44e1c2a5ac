"""A multiprocessing sweep executor for independent simulation runs.

Every figure and table in the paper's evaluation is a sweep of
independent (scheme, workload, seed) simulations, and the chaos soak is
a sweep of independent seeds — embarrassingly parallel work that the
serial runner used to grind through one cell at a time.  The
:class:`Executor` (configured by a :class:`SweepPlan`) fans such cells
across worker processes while keeping the *results* exactly what the
serial loop would have produced:

* **Deterministic merge order.**  Outcomes are returned in submission
  order, whatever order workers finish in.  Each cell is a pure
  function of its payload (the engine gives every simulation its own
  seeded RNG), so serial, parallel, and cached sweeps produce
  byte-identical results.
* **Persistent worker pools.**  Pass ``pool=`` a
  :class:`~repro.parallel.pool.WorkerPool` and the same worker
  processes serve every ``run()`` — one fork cost per process, not per
  stage; each pipe message carries the callable with one cell, so
  unlike sweeps (experiments, fleet records, fuzz cells) share one
  pool.  Without ``pool=`` an ephemeral pool is created and torn down
  per run, the pre-pool behaviour.
* **Content-addressed caching.**  With ``plan.cache`` (or an explicit
  ``cache=`` :class:`~repro.parallel.cache.SweepCache`), each cell's
  key — canonical payload + callable + code digest — is probed before
  dispatch; hits return the stored result without touching a worker
  (``RunOutcome.cached``), misses run and are recorded.  Because a
  cached value is the pickled bytes of a previous pure run, cached and
  cold sweeps are byte-identical; :class:`SweepStats` reports the
  hit/miss split.
* **Per-run timeouts.**  Each cell gets ``timeout_s`` of wall clock.
  A cell that exceeds it has its worker killed and is reported as
  ``"timeout"``; the sweep continues on a replacement worker.
* **Crash containment with retry.**  A worker runs one cell at a
  time, so a worker that dies mid-cell (segfault, ``os._exit``,
  OOM-kill) or blows its deadline charges that cell only; the cell is
  retried once on a fresh worker after a short backoff (``retries``
  controls how many times) before being reported as
  ``"crashed"``/``"timeout"``, because a worker death is the one
  failure mode that is usually the *host's* fault (memory pressure,
  fork storms) rather than the payload's.  A worker that dies idle
  charges nothing.  Deterministic failures — the callable raising —
  are never retried.
* **Graceful fallback.**  ``max_workers=1``, a sweep with one cell to
  run (workers are capped at the cell count), or a platform where
  process creation fails with ``OSError`` runs every cell in-process,
  in order, with no multiprocessing machinery at all.  A shared pool
  that was already shut down is a caller bug and raises instead.
* **Interrupt hygiene.**  A ``KeyboardInterrupt`` (or ``SystemExit``)
  mid-sweep terminates every worker outright, closes every pipe, and
  re-raises — a Ctrl-C'd sweep leaves no orphan processes behind.
  Workers receiving the terminal's group-wide SIGINT while idle exit
  quietly rather than printing tracebacks.

Transport is one duplex :func:`multiprocessing.Pipe` per worker rather
than shared queues, deliberately: a ``Queue`` flushes through a
feeder thread, so a worker killed between cells can die holding the
shared write lock and wedge every other worker.  With a pipe the worker
sends synchronously from its main thread — a message is fully written
before the next (crashable) cell starts — each worker's failure domain
is its own pipe, and a broken pipe doubles as immediate crash detection
(EOF on :func:`multiprocessing.connection.wait`).  Payloads go out and
results come back pickled on that same pipe.  See
:mod:`repro.parallel.pool` for the worker protocol.

The worker function must be a module-level callable (it crosses the
pipe pickled by reference) and payloads/results must be picklable.
Timeouts are only enforceable when real workers exist; the in-process
path runs each cell to completion and records the timeout budget as
advisory.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.parallel.cache import SweepCache
from repro.parallel.pool import (
    DEFAULT_WORKER_CAP,
    PoolLease,
    WorkerPool,
    resolve_workers,
)

__all__ = [
    "DEFAULT_WORKER_CAP",
    "Executor",
    "RunOutcome",
    "SweepError",
    "SweepPlan",
    "SweepStats",
    "resolve_workers",
    "values",
]

class SweepError(RuntimeError):
    """Raised by :func:`values` when a sweep cell did not succeed."""


@dataclass(frozen=True)
class SweepPlan:
    """Everything configurable about a sweep, as one picklable object.

    ``timeout_s`` is each cell's wall-clock budget (None: unbounded).
    ``cache=True`` consults the content-addressed result cache in
    ``cache_dir`` (default: ``$REPRO_CACHE_DIR`` or ``.repro-cache``)
    before dispatching any cell.
    """

    max_workers: Optional[int] = None
    timeout_s: Optional[float] = None
    retries: int = 1
    cache: bool = False
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        # Written as ``not > 0`` so NaN, which fails every comparison,
        # is rejected too: a budget of zero would time out every cell.
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")


@dataclass
class SweepStats:
    """Where a sweep's wall clock went, for overhead attribution.

    ``workers`` is how many worker processes ran cells (1: the sweep
    ran in-process).  ``dispatch_s`` is parent time spent choosing and
    sending work, ``compute_s`` is the sum of worker-measured per-cell
    run times (across workers, so it can exceed the wall clock),
    ``merge_s`` is parent time spent decoding results into outcomes.
    ``wall_s`` minus the parent-side stages is time the parent sat in
    poll waits.  ``pool_reuse`` is how many sweeps the shared pool had
    already served before this one (0 for an ephemeral pool);
    ``cache_hits``/``cache_misses`` split the cells that were answered
    from the content-addressed store vs actually run.
    """

    workers: int = 0
    cells: int = 0
    wall_s: float = 0.0
    dispatch_s: float = 0.0
    compute_s: float = 0.0
    merge_s: float = 0.0
    retried_cells: int = 0
    #: Sweeps the shared pool served before this one (0 = cold/ephemeral).
    pool_reuse: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Always 0: the pipe is the only transport, so nothing spills or
    #: spools.  Kept because the perfbench ``sweep`` workload reads both.
    shm_spills: int = 0
    spooled_payloads: int = 0


@dataclass
class RunOutcome:
    """What happened to one sweep cell.

    ``status`` is one of ``"ok"``, ``"error"`` (the callable raised),
    ``"timeout"`` (killed at the per-run deadline), or ``"crashed"``
    (the worker process died without reporting).  ``value`` is only
    meaningful when ``status == "ok"``.  ``cached`` marks a result
    answered from the content-addressed store without running.
    """

    index: int
    status: str
    value: Any = None
    error: Optional[str] = None
    elapsed_s: float = 0.0
    #: Ordinal of the worker process that ran the cell; -1 in-process.
    worker: int = -1
    #: Crash/timeout retries this cell consumed (0 = first try stood).
    retries: int = 0
    #: True when the value came from the sweep cache, not a run.
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def values(outcomes: Sequence[RunOutcome]) -> List[Any]:
    """Unwrap outcome values, raising :class:`SweepError` on any failure."""
    bad = [o for o in outcomes if not o.ok]
    if bad:
        first = bad[0]
        raise SweepError(
            f"{len(bad)} of {len(outcomes)} sweep cells failed; first:"
            f" cell {first.index} {first.status}: {first.error}"
        )
    return [o.value for o in outcomes]


def _run_serial(
    fn: Callable[[Any], Any], payloads: Sequence[Any], stats: SweepStats
) -> List[RunOutcome]:
    """The in-process fallback: the plain loop the serial runner was."""
    outcomes = []
    for index, payload in enumerate(payloads):
        start = time.monotonic()
        try:
            value = fn(payload)
            outcomes.append(RunOutcome(
                index=index, status="ok", value=value,
                elapsed_s=time.monotonic() - start,
            ))
        except Exception:
            outcomes.append(RunOutcome(
                index=index, status="error", error=traceback.format_exc(),
                elapsed_s=time.monotonic() - start,
            ))
        stats.compute_s += time.monotonic() - start
    return outcomes


#: Backoff before a retried cell is reassigned, seconds per attempt —
#: long enough for transient host pressure (the usual cause of a worker
#: death) to clear, short enough to be invisible in a sweep.
_RETRY_BACKOFF_S = 0.25


class Executor:
    """Runs sweeps under one :class:`SweepPlan`.

    ``pool`` is an optional shared :class:`WorkerPool`: when given, its
    processes serve this run (and are left running afterwards — the
    caller owns the pool's lifecycle); when omitted, an ephemeral pool
    is created and torn down inside :meth:`run`.  ``cache`` is an
    optional :class:`SweepCache`; when omitted and ``plan.cache`` is
    set, one is opened on ``plan.cache_dir``.  Stateless between runs
    except :attr:`stats`, which after each :meth:`run` holds that
    sweep's stage breakdown.
    """

    def __init__(self, plan: Optional[SweepPlan] = None,
                 pool: Optional[WorkerPool] = None,
                 cache: Optional[SweepCache] = None):
        self.plan = plan if plan is not None else SweepPlan()
        self.stats: Optional[SweepStats] = None
        self._pool = pool
        if cache is None and self.plan.cache:
            cache = SweepCache(self.plan.cache_dir)
        self._cache = cache

    @property
    def cache(self) -> Optional[SweepCache]:
        return self._cache

    def run(self, fn: Callable[[Any], Any],
            payloads: Sequence[Any]) -> List[RunOutcome]:
        """Run ``fn(payload)`` for every payload; outcomes in payload order."""
        payloads = list(payloads)
        stats = SweepStats(cells=len(payloads))
        self.stats = stats
        if not payloads:
            return []
        started = time.monotonic()
        try:
            outcomes: List[Optional[RunOutcome]] = [None] * len(payloads)
            keys: List[Optional[str]] = [None] * len(payloads)
            cache = self._cache
            if cache is not None:
                for i, payload in enumerate(payloads):
                    key = cache.key_for(fn, payload)
                    keys[i] = key
                    if key is None:
                        continue
                    hit, value = cache.get(key)
                    if hit:
                        outcomes[i] = RunOutcome(
                            index=i, status="ok", value=value, cached=True,
                        )
                        stats.cache_hits += 1
            todo = [i for i, o in enumerate(outcomes) if o is None]
            if cache is not None:
                stats.cache_misses = len(todo)
            if todo:
                ran = self._run_cells(fn, [payloads[i] for i in todo], stats)
                for outcome in ran:
                    index = todo[outcome.index]
                    outcome.index = index
                    outcomes[index] = outcome
                    if cache is not None and outcome.ok \
                            and keys[index] is not None:
                        cache.put(keys[index], outcome.value)
            stats.retried_cells = sum(
                o.retries for o in outcomes if o is not None
            )
            return [o for o in outcomes if o is not None]
        finally:
            stats.wall_s = time.monotonic() - started

    def _run_cells(self, fn: Callable[[Any], Any], payloads: List[Any],
                   stats: SweepStats) -> List[RunOutcome]:
        n_workers = min(resolve_workers(self.plan.max_workers), len(payloads))
        if n_workers <= 1:
            stats.workers = 1
            return _run_serial(fn, payloads, stats)
        shared = self._pool is not None
        pool = self._pool if shared else WorkerPool(max_workers=n_workers)
        try:
            lease = pool.lease(n_workers)
        except OSError:
            # No processes on this platform (sandbox, resource limits):
            # degrade to the serial path rather than failing the sweep.
            # A shared pool that is already shut down raises ValueError,
            # which propagates: that is a caller bug, not a platform.
            if not shared:
                pool.kill()
            stats.workers = 1
            return _run_serial(fn, payloads, stats)
        stats.pool_reuse = pool.runs_served
        pool.runs_served += 1
        stats.workers = len(lease.workers)
        try:
            return _run_pool(lease, fn, payloads, self.plan, stats)
        except BaseException:
            # Ctrl-C, a hard exit request, or any other escape leaves
            # workers mid-cell with unread pipes; they will never see a
            # poison pill, and a shared pool in that state would poison
            # the next sweep.  Kill the workers outright, close every
            # pipe, and let it propagate.
            pool.kill()
            raise
        finally:
            if not shared:
                pool.shutdown()


def _run_pool(
    lease: PoolLease, fn: Callable[[Any], Any], payloads: Sequence[Any],
    plan: SweepPlan, stats: SweepStats,
) -> List[RunOutcome]:
    outcomes: List[Optional[RunOutcome]] = [None] * len(payloads)
    next_index = 0
    completed = 0
    retries = plan.retries
    timeout_s = plan.timeout_s
    #: Crash/timeout retries consumed so far, per cell.
    attempts = [0] * len(payloads)
    #: Cells awaiting a retry slot, as (not_before, index).
    retry_queue: List[Tuple[float, int]] = []

    def feed() -> None:
        """Hand one cell to every idle worker, while cells remain."""
        nonlocal next_index
        t0 = time.monotonic()
        for worker in lease.workers:
            if worker.inflight is not None:
                continue
            # Retries first, so a flaky cell's result stops gating the
            # sweep's tail.
            ready = next((r for r in retry_queue if r[0] <= t0), None)
            if ready is not None:
                retry_queue.remove(ready)
                index = ready[1]
            elif next_index < len(payloads):
                index = next_index
                next_index += 1
            else:
                break
            lease.assign(worker, fn, index, payloads[index], timeout_s)
        stats.dispatch_s += time.monotonic() - t0

    def fail(worker, status: str, error: str) -> None:
        """Charge a dead worker's in-flight cell, or queue its retry."""
        nonlocal completed
        index = worker.inflight
        if attempts[index] < retries:
            attempts[index] += 1
            retry_queue.append(
                (time.monotonic() + _RETRY_BACKOFF_S * attempts[index], index)
            )
            return
        outcomes[index] = RunOutcome(
            index=index, status=status, error=error,
            elapsed_s=time.monotonic() - worker.cell_started,
            worker=worker.ordinal, retries=attempts[index],
        )
        completed += 1

    def record(worker, message: tuple) -> None:
        """Fold a worker's result for its in-flight cell into outcomes."""
        nonlocal completed
        t0 = time.monotonic()
        status, value, error, compute_s = message
        index = worker.inflight
        worker.inflight = None
        worker.deadline = None
        stats.compute_s += compute_s
        outcomes[index] = RunOutcome(
            index=index, status=status, value=value, error=error,
            elapsed_s=t0 - worker.cell_started,
            worker=worker.ordinal, retries=attempts[index],
        )
        completed += 1
        stats.merge_s += time.monotonic() - t0

    feed()
    while completed < len(payloads):
        events = lease.poll()
        for worker, message in events:
            if message is not None:
                record(worker, message)
                continue
            # EOF: the worker died.  Charge (or retry) the cell it was
            # running, if any, and refill the slot.
            index = worker.inflight
            if index is not None:
                fail(
                    worker, "crashed",
                    f"worker {worker.ordinal} died"
                    f" (exitcode {worker.process.exitcode},"
                    f" attempt {attempts[index] + 1})",
                )
            lease.replace(worker)
        if events:
            feed()
            continue

        # Nothing to read: enforce per-cell deadlines.
        now = time.monotonic()
        for worker in list(lease.workers):
            if worker.deadline is not None and now > worker.deadline:
                fail(
                    worker, "timeout",
                    f"cell exceeded {timeout_s}s"
                    f" (attempt {attempts[worker.inflight] + 1})",
                )
                lease.replace(worker)
        feed()

    return [o for o in outcomes if o is not None]
