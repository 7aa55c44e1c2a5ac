"""Dispatch over the worker pipes, one cell per message.

Every per-cell promise of the executor — deterministic merge order,
crash containment, retry accounting — holds across sweeps with more
cells than workers, so each worker runs many cells in turn.  These
tests pin that surface.
"""

import dataclasses
import os

import pytest

from repro.parallel import Executor, SweepPlan, SweepStats, values

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
    assert plan.timeout_s is None


@pytest.mark.parametrize("kwargs", [
    {"retries": -1},
    {"timeout_s": float("-inf")},
    {"timeout_s": -0.0},
    {"timeout_s": 0},
    {"timeout_s": -1.0},
    {"timeout_s": float("nan")},
])
def test_plan_rejects_bad_config(kwargs):
    with pytest.raises(ValueError):
        SweepPlan(**kwargs)


# --- dispatch ---------------------------------------------------------------


def test_results_in_submission_order():
    executor = Executor(SweepPlan(max_workers=2))
    outcomes = executor.run(_square, list(range(23)))
    assert [o.index for o in outcomes] == list(range(23))
    assert values(outcomes) == [i * i for i in range(23)]
    assert executor.stats.cells == 23


def test_oversized_result_crosses_the_pipe():
    # The worker blocks writing each result until the parent drains
    # it, and every byte must arrive.
    executor = Executor(SweepPlan(max_workers=2))
    outcomes = executor.run(_big_result, list(range(3)))
    expected = bytes(_BIG)
    assert all(o.ok and o.value == expected for o in outcomes)
    assert executor.stats.workers == 2


# --- crash containment -------------------------------------------------------


def test_crash_charges_only_the_inflight_cell():
    """A worker death charges the cell it was running; every other
    cell, including those the replacement worker runs, keeps its full
    retry budget."""
    plan = SweepPlan(max_workers=2, retries=0)
    outcomes = Executor(plan).run(_crash_on_five, list(range(12)))
    by = {o.index: o for o in outcomes}
    assert by[5].status == "crashed"
    assert "died" in by[5].error
    innocents = [o for o in outcomes if o.index != 5]
    assert all(o.ok for o in innocents)
    assert all(o.retries == 0 for o in innocents)


def test_crash_retry_within_batches():
    plan = SweepPlan(max_workers=2, retries=1)
    outcomes = Executor(plan).run(_crash_on_five, list(range(12)))
    by = {o.index: o for o in outcomes}
    # Cell 5 crashes deterministically: it consumed its one retry and
    # still failed; everything else is untouched.
    assert by[5].status == "crashed"
    assert by[5].retries == 1
    assert all(o.ok and o.retries == 0 for o in outcomes if o.index != 5)


def test_deterministic_error_not_retried_in_batch():
    plan = SweepPlan(max_workers=2, retries=2)
    outcomes = Executor(plan).run(_fail_on_three, list(range(9)))
    by = {o.index: o for o in outcomes}
    assert by[3].status == "error"
    assert by[3].retries == 0
    assert "three is right out" in by[3].error


# --- stats ------------------------------------------------------------------


def test_stats_stage_breakdown_populated():
    executor = Executor(SweepPlan(max_workers=2))
    executor.run(_square, list(range(12)))
    stats = executor.stats
    assert isinstance(stats, SweepStats)
    assert stats.workers == 2
    assert stats.wall_s > 0
    assert stats.compute_s > 0
    assert stats.dispatch_s >= 0 and stats.merge_s >= 0
    payload = dataclasses.asdict(stats)
    for key in ("dispatch_s", "compute_s", "merge_s", "retried_cells"):
        assert key in payload


def test_serial_path_stats():
    executor = Executor(SweepPlan(max_workers=1))
    outcomes = executor.run(_square, list(range(4)))
    assert values(outcomes) == [0, 1, 4, 9]
    assert all(o.worker == -1 for o in outcomes)
    assert executor.stats.workers == 1
