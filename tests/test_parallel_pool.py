"""The persistent worker pool: reuse, fn switching, leak regressions."""

import gc
import multiprocessing
import os
import signal
import time
import weakref

import pytest

from repro.parallel import Executor, SweepPlan, WorkerPool, values

# Worker functions must be module-level (pickled by reference).


def _square(x):
    return x * x


def _double(x):
    return x + x


def _pid(_x):
    return os.getpid()


def _sigkill_on_die(x):
    if x == "die":
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def test_shared_pool_serves_many_runs_with_one_fork_cost():
    with WorkerPool(max_workers=2) as pool:
        executor = Executor(SweepPlan(max_workers=2), pool=pool)
        first = values(executor.run(_square, range(6)))
        second = values(executor.run(_square, range(6)))
        assert first == second == [x * x for x in range(6)]
        # Two runs, two workers, two forks total: the pool's whole point.
        assert pool.forks == 2
        assert pool.runs_served == 2
        assert executor.stats.pool_reuse == 1


def test_shared_pool_switches_functions_between_runs():
    # Every message carries the callable, so one pool serves
    # heterogeneous stages back to back.
    with WorkerPool(max_workers=2) as pool:
        squares = values(
            Executor(SweepPlan(max_workers=2), pool=pool).run(_square, range(4))
        )
        doubles = values(
            Executor(SweepPlan(max_workers=2), pool=pool).run(_double, range(4))
        )
        assert squares == [0, 1, 4, 9]
        assert doubles == [0, 2, 4, 6]
        assert pool.forks == 2


def test_shared_pool_runs_reuse_the_same_processes():
    with WorkerPool(max_workers=2) as pool:
        executor = Executor(SweepPlan(max_workers=2), pool=pool)
        pids_a = set(values(executor.run(_pid, range(4))))
        pids_b = set(values(executor.run(_pid, range(4))))
        assert pids_a == pids_b
        assert len(pids_a) == 2


def test_lease_subset_of_a_larger_pool():
    with WorkerPool(max_workers=4) as pool:
        executor = Executor(SweepPlan(max_workers=2), pool=pool)
        assert values(executor.run(_square, range(8))) == \
            [x * x for x in range(8)]
        # Only the leased workers were spawned (lazy ensure).
        assert pool.forks == 2
        executor4 = Executor(SweepPlan(max_workers=4), pool=pool)
        assert values(executor4.run(_square, range(8))) == \
            [x * x for x in range(8)]
        assert pool.forks == 4


def test_ephemeral_pool_is_torn_down_per_run():
    executor = Executor(SweepPlan(max_workers=2))
    assert values(executor.run(_square, range(4))) == [0, 1, 4, 9]
    assert executor.stats.pool_reuse == 0


def test_shutdown_then_run_raises():
    pool = WorkerPool(max_workers=2)
    pool.shutdown()
    assert pool.closed
    with pytest.raises(ValueError, match="shut down"):
        pool.ensure(1)


def test_executor_on_a_shut_down_pool_raises():
    # A closed shared pool is a caller bug: the sweep must fail loudly
    # rather than quietly run every cell in-process.
    pool = WorkerPool(max_workers=2)
    pool.shutdown()
    executor = Executor(SweepPlan(max_workers=2), pool=pool)
    with pytest.raises(ValueError, match="shut down"):
        executor.run(_square, range(4))


# --- abnormal-exit lifecycle (the leak regression) ---------------------------


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_sigkill_mid_batch_leaves_no_live_children():
    # SIGKILL a worker mid-sweep (the harshest abnormal exit: no atexit,
    # no signal handler, nothing runs in the worker).  The crash is
    # charged to its own cell only, and once the pool has exited no
    # process it spawned, the killed worker's replacement included, is
    # still alive.
    before = set(multiprocessing.active_children())
    plan = SweepPlan(max_workers=2, retries=0)
    with WorkerPool(max_workers=2) as pool:
        outcomes = Executor(plan, pool=pool).run(
            _sigkill_on_die, ["a", "die", "b", "c", "d", "e"]
        )
        statuses = {o.index: o.status for o in outcomes}
        assert statuses[1] == "crashed"
        assert all(
            statuses[i] == "ok" for i in statuses if i != 1
        )
        assert pool.forks == 3
    assert set(multiprocessing.active_children()) - before == set()


def _kill_the_idle_worker(payload):
    """The quick cell records its worker's pid; the slow cell, running
    on the other worker, SIGKILLs that now-idle worker mid-sweep."""
    role, pid_file = payload
    if role == "quick":
        with open(pid_file + ".tmp", "w") as fh:
            fh.write(str(os.getpid()))
        os.replace(pid_file + ".tmp", pid_file)
        return role
    deadline = time.monotonic() + 10
    while not os.path.exists(pid_file) and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.2)  # the quick cell's result is sent: its worker is idle
    with open(pid_file) as fh:
        os.kill(int(fh.read()), signal.SIGKILL)
    time.sleep(0.3)  # the parent sees the EOF before this cell returns
    return role


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_worker_killed_while_idle_charges_no_cell(tmp_path):
    # A worker that dies holding no cell costs the sweep a replacement
    # fork and nothing else: no cell is charged and no retry is spent,
    # even with retries=0.
    pid_file = str(tmp_path / "quick.pid")
    plan = SweepPlan(max_workers=2, retries=0)
    with WorkerPool(max_workers=2) as pool:
        outcomes = Executor(plan, pool=pool).run(
            _kill_the_idle_worker, [("quick", pid_file), ("slow", pid_file)]
        )
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert [o.value for o in outcomes] == ["quick", "slow"]
        assert [o.retries for o in outcomes] == [0, 0]
        assert pool.forks == 3


# --- the worker collects each finished cell --------------------------------


class _Node:
    pass


#: Worker side: a weak reference to the cycle the "park" cell left.
_parked = []


def _park_or_probe(role):
    """``park`` leaves a reference cycle in the oldest generation;
    ``probe`` reports whether it has been collected since."""
    if role == "park":
        node = _Node()
        node.cycle = node
        gc.collect()  # survivors move to the oldest generation
        _parked.append(weakref.ref(node))
        return None
    return _parked[-1]() is None


def _run_on(lease, worker, fn, payload):
    lease.assign(worker, fn, 0, payload, None)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        for _worker, message in lease.poll():
            assert message is not None, "worker died"
            status, value, error, _elapsed = message
            assert status == "ok", error
            worker.inflight = None
            return value
    raise AssertionError("no result within 30 s")


def test_worker_collects_a_finished_cell_before_the_next():
    # A finished simulation is cyclic garbage.  Left to the collector's
    # thresholds, a cycle in the oldest generation outlives many cells;
    # the worker collects after every cell, so the next one finds it gone.
    with WorkerPool(max_workers=1) as pool:
        lease = pool.lease(1)
        (worker,) = lease.workers
        assert _run_on(lease, worker, _park_or_probe, "park") is None
        assert _run_on(lease, worker, _park_or_probe, "probe") is True
