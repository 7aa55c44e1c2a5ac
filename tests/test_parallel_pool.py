"""The persistent worker pool: reuse, fn switching, leak regressions."""

import multiprocessing
import os
import signal

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
    # The batch protocol carries the callable, so one pool serves
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


def test_pool_recycling_budget_counts_across_runs():
    # tasks_per_worker is a pool property: the budget spans sweeps, so
    # a long-lived pool still recycles its processes.
    with WorkerPool(max_workers=2, tasks_per_worker=2) as pool:
        executor = Executor(SweepPlan(max_workers=2), pool=pool)
        for _ in range(3):
            assert values(executor.run(_square, range(4))) == [0, 1, 4, 9]
        # 12 cells / budget 2 => recycling forced extra forks.
        assert pool.forks > 2


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
    # SIGKILL a worker mid-batch (the harshest abnormal exit: no atexit,
    # no signal handler, nothing runs in the worker).  The crash is
    # charged to its own cell only, and once the pool has exited no
    # process it spawned, the killed worker's replacement included, is
    # still alive.
    before = set(multiprocessing.active_children())
    plan = SweepPlan(max_workers=2, retries=0, batch_size=3)
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
