"""Batched dispatch over the worker pipes.

Batching must keep every per-cell promise of the executor —
deterministic merge order, crash containment, retry accounting — while
one pipe message carries several cells.  These tests pin that surface.
"""

import os

import pytest

from repro.parallel import Executor, SweepPlan, SweepStats, values
from repro.parallel.executor import _auto_batch

#: Nine MiB: hundreds of times the largest result an in-tree sweep returns.
_BIG = 9 << 20


def _square(x):
    return x * x


def _big_result(x):
    return bytes(_BIG)


def _crash_on_five(x):
    if x == 5:
        os._exit(17)
    return x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


# --- SweepPlan validation ---------------------------------------------------


def test_plan_defaults():
    plan = SweepPlan()
    assert plan.retries == 1
    assert plan.batch_size is None
    assert plan.timeout_s is None


@pytest.mark.parametrize("kwargs", [
    {"retries": -1},
    {"batch_size": 0},
    {"tasks_per_worker": 0},
    {"timeout_s": 0},
    {"timeout_s": -1.0},
    {"timeout_s": float("nan")},
])
def test_plan_rejects_bad_config(kwargs):
    with pytest.raises(ValueError):
        SweepPlan(**kwargs)


def test_auto_batch_scales_with_sweep_size():
    assert _auto_batch(6, 4) == 1       # registry-sized sweep: no batching
    assert _auto_batch(200, 4) == 6     # fuzz-campaign sized: amortise
    assert _auto_batch(10_000, 4) == 16  # capped


# --- batched dispatch -------------------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 3, 16])
def test_batched_results_in_submission_order(batch_size):
    executor = Executor(SweepPlan(max_workers=2, batch_size=batch_size))
    outcomes = executor.run(_square, list(range(23)))
    assert [o.index for o in outcomes] == list(range(23))
    assert values(outcomes) == [i * i for i in range(23)]
    assert executor.stats.cells == 23
    assert executor.stats.batch_size == batch_size


def test_oversized_result_crosses_the_pipe():
    # Two such results per batch: the worker blocks writing each one
    # until the parent drains it, and every byte must arrive.
    executor = Executor(SweepPlan(max_workers=2, batch_size=2))
    outcomes = executor.run(_big_result, list(range(3)))
    expected = bytes(_BIG)
    assert all(o.ok and o.value == expected for o in outcomes)
    assert executor.stats.transport == "pipe"
    assert executor.stats.batch_size == 2


# --- crash containment within a batch ---------------------------------------


def test_crash_charges_only_the_inflight_cell():
    """A worker death mid-batch charges the running cell; cells queued
    behind it in the same batch keep their full retry budget."""
    plan = SweepPlan(max_workers=2, batch_size=4, retries=0)
    outcomes = Executor(plan).run(_crash_on_five, list(range(12)))
    by = {o.index: o for o in outcomes}
    assert by[5].status == "crashed"
    assert "died" in by[5].error
    innocents = [o for o in outcomes if o.index != 5]
    assert all(o.ok for o in innocents)
    assert all(o.retries == 0 for o in innocents)


def test_crash_retry_within_batches():
    plan = SweepPlan(max_workers=2, batch_size=4, retries=1)
    outcomes = Executor(plan).run(_crash_on_five, list(range(12)))
    by = {o.index: o for o in outcomes}
    # Cell 5 crashes deterministically: it consumed its one retry and
    # still failed; everything else is untouched.
    assert by[5].status == "crashed"
    assert by[5].retries == 1
    assert all(o.ok and o.retries == 0 for o in outcomes if o.index != 5)


def test_deterministic_error_not_retried_in_batch():
    plan = SweepPlan(max_workers=2, batch_size=3, retries=2)
    outcomes = Executor(plan).run(_fail_on_three, list(range(9)))
    by = {o.index: o for o in outcomes}
    assert by[3].status == "error"
    assert by[3].retries == 0
    assert "three is right out" in by[3].error


# --- stats ------------------------------------------------------------------


def test_stats_stage_breakdown_populated():
    executor = Executor(SweepPlan(max_workers=2, batch_size=2))
    executor.run(_square, list(range(12)))
    stats = executor.stats
    assert isinstance(stats, SweepStats)
    assert stats.workers == 2
    assert stats.wall_s > 0
    assert stats.compute_s > 0
    assert stats.dispatch_s >= 0 and stats.merge_s >= 0
    payload = stats.to_dict()
    for key in ("dispatch_s", "compute_s", "merge_s", "transport",
                "batch_size", "retried_cells"):
        assert key in payload


def test_serial_path_stats():
    executor = Executor(SweepPlan(max_workers=1))
    outcomes = executor.run(_square, list(range(4)))
    assert values(outcomes) == [0, 1, 4, 9]
    assert all(o.worker == -1 for o in outcomes)
    assert executor.stats.workers == 1
    assert executor.stats.transport == "serial"


# --- recycling composes with batching ---------------------------------------


def test_batches_never_straddle_recycling_budget():
    plan = SweepPlan(max_workers=2, batch_size=8, tasks_per_worker=2)
    executor = Executor(plan)
    outcomes = executor.run(_square, list(range(10)))
    assert values(outcomes) == [i * i for i in range(10)]
    # Budget caps the effective batch: a worker retiring after 2 cells
    # can never be handed 8.
    assert executor.stats.batch_size == 2
    # 10 cells / 2 per worker = 5 worker lifetimes; ordinals prove
    # replacement actually happened.
    assert len({o.worker for o in outcomes}) >= 5
