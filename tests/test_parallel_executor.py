"""The parallel sweep executor: ordering, fallback, crashes, timeouts."""

import os
import time

import pytest

from repro.parallel import (
    DEFAULT_WORKER_CAP,
    Executor,
    RunOutcome,
    SweepError,
    SweepPlan,
    resolve_workers,
    values,
)


# Worker functions must be module-level (imported by name in workers).

def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _crash_on_two(x):
    if x == 2:
        os._exit(17)  # die without reporting, like a segfault would
    return x


def _sleep_on_one(x):
    if x == 1:
        time.sleep(30)
    return x


def _crash_until_marker(payload):
    """Dies unless its marker file exists; the first attempt creates it.

    Models the transient failure retry exists for: host pressure killed
    the worker once, and a fresh process succeeds.
    """
    marker, value = payload
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(17)
    return value * 10


def test_empty_sweep():
    assert Executor(SweepPlan()).run(_square, []) == []


def test_resolve_workers():
    assert resolve_workers(1) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(7) == 7
    assert 1 <= resolve_workers(None) <= DEFAULT_WORKER_CAP


def test_serial_fallback_preserves_order():
    outcomes = Executor(SweepPlan(max_workers=1)).run(_square, range(6))
    assert [o.index for o in outcomes] == list(range(6))
    assert all(o.ok and o.worker == -1 for o in outcomes)
    assert values(outcomes) == [x * x for x in range(6)]


def test_serial_fallback_reports_errors():
    outcomes = Executor(SweepPlan(max_workers=1)).run(_fail_on_three, range(5))
    assert [o.status for o in outcomes] == ["ok", "ok", "ok", "error", "ok"]
    assert "three is right out" in outcomes[3].error
    with pytest.raises(SweepError, match="cell 3 error"):
        values(outcomes)


def test_parallel_results_merge_in_submission_order():
    outcomes = Executor(SweepPlan(max_workers=2)).run(_square, range(8))
    assert [o.index for o in outcomes] == list(range(8))
    assert values(outcomes) == [x * x for x in range(8)]
    assert all(o.worker >= 0 for o in outcomes)


def test_parallel_error_is_contained_to_its_cell():
    outcomes = Executor(SweepPlan(max_workers=2)).run(_fail_on_three, range(5))
    assert [o.status for o in outcomes] == ["ok", "ok", "ok", "error", "ok"]
    assert "ValueError" in outcomes[3].error


def test_worker_crash_is_contained_to_its_cell():
    outcomes = Executor(SweepPlan(max_workers=2)).run(_crash_on_two, range(5))
    assert outcomes[2].status == "crashed"
    assert "died" in outcomes[2].error
    # The default single retry was spent before giving up (the cell
    # crashes deterministically, so the retry crashed too).
    assert outcomes[2].retries == 1
    others = [o for o in outcomes if o.index != 2]
    assert all(o.ok for o in others)
    assert all(o.retries == 0 for o in others)
    assert [o.value for o in others] == [0, 1, 3, 4]


def test_transient_crash_is_healed_by_retry(tmp_path):
    payloads = [
        (None, 0),
        (str(tmp_path / "m1"), 1),
        (None, 2),
        (str(tmp_path / "m3"), 3),
    ]
    outcomes = Executor(SweepPlan(max_workers=2)).run(
        _crash_until_marker, payloads
    )
    assert all(o.ok for o in outcomes)
    assert [o.value for o in outcomes] == [0, 10, 20, 30]
    assert [o.retries for o in outcomes] == [0, 1, 0, 1]


def _slow_until_marker(payload):
    marker, value = payload
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(30)
    return value


def test_transient_timeout_is_healed_by_retry(tmp_path):
    payloads = [(None, 0), (str(tmp_path / "slow"), 1), (None, 2)]
    outcomes = Executor(SweepPlan(max_workers=2, timeout_s=1.0)).run(
        _slow_until_marker, payloads
    )
    assert all(o.ok for o in outcomes)
    assert [o.value for o in outcomes] == [0, 1, 2]
    assert outcomes[1].retries == 1


def test_retries_zero_restores_fail_fast():
    outcomes = Executor(SweepPlan(max_workers=2, retries=0)).run(
        _crash_on_two, range(5)
    )
    assert outcomes[2].status == "crashed"
    assert outcomes[2].retries == 0


def test_negative_retries_is_rejected():
    with pytest.raises(ValueError, match="retries"):
        Executor(SweepPlan(max_workers=2, retries=-1)).run(_square, range(2))


def test_deterministic_errors_are_never_retried(tmp_path):
    # A raising callable must not burn retries: the failure would just
    # repeat, and the traceback is the diagnostic the caller wants.
    outcomes = Executor(SweepPlan(max_workers=2, retries=3)).run(
        _fail_on_three, range(5)
    )
    assert outcomes[3].status == "error"
    assert outcomes[3].retries == 0


def test_per_run_timeout_kills_only_the_slow_cell():
    plan = SweepPlan(max_workers=2, timeout_s=1.0, retries=0)
    outcomes = Executor(plan).run(_sleep_on_one, range(4))
    assert outcomes[1].status == "timeout"
    assert outcomes[1].retries == 0
    others = [o for o in outcomes if o.index != 1]
    assert all(o.ok for o in others)
    assert [o.value for o in others] == [0, 2, 3]


def test_worker_recycling_spawns_fresh_processes():
    outcomes = Executor(SweepPlan(max_workers=2, tasks_per_worker=1)).run(
        _square, range(4)
    )
    assert values(outcomes) == [0, 1, 4, 9]
    # Each worker retires after one cell, so no ordinal repeats.
    ordinals = [o.worker for o in outcomes]
    assert len(set(ordinals)) == len(ordinals)


def test_values_passthrough_on_success():
    outcomes = [RunOutcome(index=0, status="ok", value="a")]
    assert values(outcomes) == ["a"]


# --- interrupt hygiene -------------------------------------------------------


def _interrupt(x):
    raise KeyboardInterrupt


def test_inprocess_interrupt_propagates():
    # workers<=1 runs cells in-process: a Ctrl-C during a cell must
    # reach the caller, not be swallowed into an "error" outcome.
    with pytest.raises(KeyboardInterrupt):
        Executor(SweepPlan(max_workers=1)).run(_interrupt, range(3))


def test_pool_kill_reaps_workers_and_closes_pipes():
    from repro.parallel import WorkerPool

    pool = WorkerPool(max_workers=2)
    pool.ensure(2)
    processes = [w.process for w in pool.workers]
    assert all(p.is_alive() for p in processes)
    pool.kill()
    assert all(not p.is_alive() for p in processes)
    for worker in pool.workers:
        assert worker.conn.closed
    # Idempotent, and shutdown() after kill() is a no-op (the pipes
    # are gone; a graceful drain would explode).
    pool.kill()
    pool.shutdown()


def test_interrupt_mid_sweep_kills_the_pool(monkeypatch):
    # Inject a KeyboardInterrupt into the parent's poll loop and check
    # the sweep re-raises it with every worker dead and pipes closed.
    import repro.parallel.executor as executor
    from repro.parallel.pool import WorkerPool

    captured = {}

    def _boom():
        raise KeyboardInterrupt

    class _Spy(WorkerPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            captured["pool"] = self

        def lease(self, n):
            lease = super().lease(n)
            lease.poll = _boom
            return lease

    monkeypatch.setattr(executor, "WorkerPool", _Spy)
    with pytest.raises(KeyboardInterrupt):
        Executor(SweepPlan(max_workers=2)).run(_sleep_on_one, [1, 1, 1, 1])
    pool = captured["pool"]
    assert all(not w.process.is_alive() for w in pool.workers)
    assert all(w.conn.closed for w in pool.workers)


@pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
def test_sigint_mid_sweep_leaves_no_orphans(tmp_path):
    # The real thing: a separate interpreter runs a sweep of slow
    # cells, takes a SIGINT, and must exit promptly via
    # KeyboardInterrupt with no worker processes left behind.
    import signal
    import subprocess
    import sys
    import textwrap

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = tmp_path / "sweeper.py"
    script.write_text(textwrap.dedent("""
        import multiprocessing
        import sys
        import time

        from repro.parallel import Executor, SweepPlan

        def slow(x):
            time.sleep(60)
            return x

        if __name__ == "__main__":
            print("ready", flush=True)
            try:
                Executor(SweepPlan(max_workers=2)).run(slow, [1, 2, 3, 4])
            except KeyboardInterrupt:
                leftover = [p for p in multiprocessing.active_children()
                            if p.is_alive()]
                print(f"leftover={len(leftover)}", flush=True)
                sys.exit(42)
            sys.exit(0)
    """))
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True,
    )
    try:
        assert proc.stdout.readline().strip() == "ready"
        time.sleep(1.0)  # let the pool spawn and cells start
        os.kill(proc.pid, signal.SIGINT)
        stdout, _stderr = proc.communicate(timeout=15)
    finally:
        if proc.poll() is None:  # pragma: no cover - hung sweep
            proc.kill()
            proc.communicate()
    assert proc.returncode == 42
    assert "leftover=0" in stdout
