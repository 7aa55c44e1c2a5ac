"""The persistent worker pool behind the sweep executor.

Before this module existed, every :meth:`repro.parallel.Executor.run`
forked a fresh set of worker processes and tore them down at the end —
one fork cost per *stage*, paid again by every bench stage, every fuzz
shard, and every chaos soak in the same process.  A
:class:`WorkerPool` decouples worker lifetime from sweep lifetime:

* **Function-per-batch protocol.**  Workers no longer bind the sweep
  callable at fork time; each batch message carries the callable
  (pickled by reference — it must stay a module-level function) along
  with its ``(index, payload)`` cells, so one pool serves
  ``run_experiment`` cells, fleet records, chaos seeds, and fuzz
  scenarios back to back.
* **Leases.**  A run asks for ``lease(n)`` and operates on the first
  ``n`` workers; the pool may hold more (sized once for the largest
  stage).  Replacements for crashed/retired workers happen through the
  lease so both views stay consistent.
* **Lifecycle.**  ``shutdown()`` drains gracefully (poison pills),
  ``kill()`` tears down immediately (the Ctrl-C path), both are
  idempotent, and the pool registers an :mod:`atexit` ``kill`` so a
  process that exits with a live pool leaves no orphan processes or
  pipes behind.  ``with WorkerPool(...)`` shuts down on exit.

Everything the old per-run pool promised still holds: one duplex pipe
per worker (a dead worker reads as EOF, never a wedged queue) that
carries payloads out and pickled results back, recycling via
``tasks_per_worker``, and completions that arrive strictly in batch
order so crash attribution stays per-cell.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: Default worker-count cap when ``max_workers`` is None: enough to
#: cover the experiment sweeps without oversubscribing small machines.
DEFAULT_WORKER_CAP = 4

#: How long the parent waits for worker messages per poll, seconds.
_POLL_S = 0.02


def resolve_workers(max_workers: Optional[int]) -> int:
    """Map the user-facing ``--workers`` value to a worker count.

    ``None`` means auto: one worker per CPU, capped at
    :data:`DEFAULT_WORKER_CAP`.  Anything below 2 means in-process.
    """
    if max_workers is None:
        max_workers = min(DEFAULT_WORKER_CAP, os.cpu_count() or 1)
    return max(1, int(max_workers))


# --- worker side -----------------------------------------------------------


def _worker_main(worker_id: int, conn,
                 tasks_per_worker: Optional[int]) -> None:
    """Run cell batches from the pipe until retired, poisoned, or crashed."""
    done = 0
    while True:
        try:
            batch = conn.recv()
        except (EOFError, OSError):
            return
        except KeyboardInterrupt:
            # A terminal Ctrl-C delivers SIGINT to the whole foreground
            # process group, workers included.  The parent owns the
            # interrupt (it kills the pool); a worker parked on recv()
            # just exits quietly instead of spraying tracebacks.
            return
        if batch is None:
            return
        fn, cells = batch
        for index, payload in cells:
            started = time.perf_counter()
            try:
                value = fn(payload)
                message = ("ok", worker_id, index, value, None,
                           time.perf_counter() - started)
            except BaseException:
                message = ("error", worker_id, index, None,
                           traceback.format_exc(),
                           time.perf_counter() - started)
            try:
                # send() pickles then writes from this thread, so the
                # message is fully flushed before the next cell can
                # crash the process, and an unpicklable result surfaces
                # here as a structured error rather than killing the
                # worker.
                conn.send(message)
            except Exception as exc:
                conn.send(("error", worker_id, index, None,
                           f"result of cell {index} is not picklable: {exc!r}",
                           0.0))
            done += 1
            if tasks_per_worker is not None and done >= tasks_per_worker:
                conn.send(("retired", worker_id, None, None, None, 0.0))
                return


# --- parent side -----------------------------------------------------------


@dataclass
class _Worker:
    """Parent-side bookkeeping for one worker process."""

    ordinal: int
    process: Any
    conn: Any
    #: Indices of the assigned batch still awaiting completion, in the
    #: order the worker runs them (completions arrive in this order).
    pending: List[int] = field(default_factory=list)
    #: Wall-clock deadline for the cell now in flight, or None.
    deadline: Optional[float] = None
    #: When the cell now in flight started (parent clock).
    cell_started: float = 0.0
    tasks_done: int = field(default=0)

    @property
    def inflight(self) -> Optional[int]:
        """The cell the worker is running right now, or None when idle."""
        return self.pending[0] if self.pending else None


class WorkerPool:
    """A set of worker processes that outlives any single sweep.

    ``max_workers`` bounds the pool (``None`` = the auto cap); workers
    spawn lazily as leases demand them, so a pool constructed for the
    largest stage costs nothing until used.

    ``tasks_per_worker`` is a *pool* property: a worker's recycling
    budget counts every cell it has run across all the sweeps the pool
    served, which is exactly what the budget is for (bounding leaked
    per-process state over a worker's whole lifetime).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        tasks_per_worker: Optional[int] = None,
        transport: str = "pipe",
    ):
        # The pipe is the only transport; the keyword survives because
        # the perfbench ``sweep`` workload still passes transport="pipe".
        if transport != "pipe":
            raise ValueError(f"transport must be 'pipe', got {transport!r}")
        self.size = resolve_workers(max_workers)
        self.tasks_per_worker = tasks_per_worker
        self._ctx = multiprocessing.get_context()
        self._next_ordinal = 0
        self._dead = False
        self.workers: List[_Worker] = []
        #: Sweeps this pool has served (read by SweepStats.pool_reuse).
        self.runs_served = 0
        #: Worker processes spawned over the pool's lifetime.
        self.forks = 0
        # A pool abandoned without shutdown() (or killed by Ctrl-C
        # outside a sweep) must not strand processes; kill() is
        # idempotent so a clean shutdown makes this a no-op.
        atexit.register(self.kill)

    # -- lifecycle ----------------------------------------------------------

    def ensure(self, n: int) -> None:
        """Spawn workers until ``min(n, size)`` exist.

        Raises ``ValueError`` once the pool is shut down, and
        ``OSError`` when the platform cannot create processes; whatever
        was spawned before such a failure stays usable (callers may
        retry with a smaller lease or fall back to serial).
        """
        if self._dead:
            raise ValueError("pool is shut down")
        target = min(n, self.size)
        while len(self.workers) < target:
            self.workers.append(self._spawn())

    def lease(self, n: int) -> "PoolLease":
        """A view over the first ``min(n, size)`` workers for one sweep.

        Workers left with undelivered state by an aborted sweep are
        replaced before the lease is handed out, so each sweep starts
        from idle pipes.
        """
        self.ensure(n)
        workers = self.workers[:min(n, self.size)]
        for i, worker in enumerate(workers):
            if worker.pending or not worker.process.is_alive():
                workers[i] = self.replace(worker)
        return PoolLease(self, workers)

    def _spawn(self) -> _Worker:
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        try:
            process = self._ctx.Process(
                target=_worker_main,
                args=(ordinal, child_conn, self.tasks_per_worker),
                daemon=True,
            )
            process.start()
        except BaseException:
            parent_conn.close()
            child_conn.close()
            raise
        # Close the child's end in the parent so a dead worker reads as
        # EOF here instead of a half-open pipe.
        child_conn.close()
        self.forks += 1
        return _Worker(ordinal=ordinal, process=process, conn=parent_conn)

    def replace(self, worker: _Worker) -> _Worker:
        """Kill a worker (timeout/crash/retired) and refill its slot."""
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5)
        worker.conn.close()
        slot = self.workers.index(worker)
        fresh = self._spawn()
        self.workers[slot] = fresh
        return fresh

    def shutdown(self) -> None:
        """Drain gracefully: poison pills, then join, then close pipes."""
        if self._dead:
            return
        self._dead = True
        atexit.unregister(self.kill)
        for worker in self.workers:
            try:
                worker.conn.send(None)
            except Exception:  # pragma: no cover - pipe already broken
                pass
        for worker in self.workers:
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2)
            worker.conn.close()

    def kill(self) -> None:
        """Tear the pool down *now*: no poison pills, no graceful drain.

        The interrupt path.  Terminate every worker (no matter what it
        is running), join briefly, and close every pipe, so a Ctrl-C'd
        sweep leaves no orphan processes or leaked file descriptors
        behind.  Idempotent, and makes any later :meth:`shutdown` a
        no-op.
        """
        if self._dead:
            return
        self._dead = True
        atexit.unregister(self.kill)
        for worker in self.workers:
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in self.workers:
            worker.process.join(timeout=2)
            if worker.process.is_alive():  # pragma: no cover - stuck in D
                worker.process.kill()
                worker.process.join(timeout=2)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    @property
    def closed(self) -> bool:
        return self._dead

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class PoolLease:
    """One sweep's view over a subset of a pool's workers.

    The executor's run loop talks to the lease only; worker
    replacement updates the pool's slot *and* the lease's, so the two
    views never diverge mid-sweep.
    """

    def __init__(self, pool: WorkerPool, workers: List[_Worker]):
        self._pool = pool
        self.workers = workers

    @property
    def tasks_per_worker(self) -> Optional[int]:
        return self._pool.tasks_per_worker

    def assign(self, worker: _Worker, fn: Callable[[Any], Any],
               indices: List[int], payloads: Sequence[Any],
               timeout_s: Optional[float]) -> None:
        worker.pending = list(indices)
        worker.cell_started = time.monotonic()
        worker.deadline = (
            worker.cell_started + timeout_s if timeout_s is not None else None
        )
        worker.conn.send((fn, [(i, payloads[i]) for i in indices]))

    def poll(self) -> List[Tuple[_Worker, Optional[tuple]]]:
        """(worker, message) for every leased worker with news.

        A ``None`` message means the worker's pipe hit EOF (or broke
        mid-message): the process is gone.
        """
        ready = connection.wait(
            [worker.conn for worker in self.workers], timeout=_POLL_S
        )
        events: List[Tuple[_Worker, Optional[tuple]]] = []
        by_conn = {worker.conn: worker for worker in self.workers}
        for conn in ready:
            worker = by_conn[conn]
            try:
                events.append((worker, conn.recv()))
            except (EOFError, OSError):
                events.append((worker, None))
        return events

    def by_ordinal(self, ordinal: int) -> Optional[_Worker]:
        for worker in self.workers:
            if worker.ordinal == ordinal:
                return worker
        return None

    def replace(self, worker: _Worker) -> _Worker:
        fresh = self._pool.replace(worker)
        slot = self.workers.index(worker)
        self.workers[slot] = fresh
        return fresh
