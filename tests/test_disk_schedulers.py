"""Unit tests for disk scheduling policies."""

import pytest

from repro.disk import (
    BlindFairScheduler,
    CScanScheduler,
    DiskOp,
    DiskRequest,
    FairCScanScheduler,
    FifoScheduler,
    NullLedger,
    SstfScheduler,
    cscan_pick,
    make_scheduler,
    sstf_pick,
)
from repro.disk.schedulers import BACKGROUND_STARVATION_LIMIT


def req(spu_id: int, sector: int, n: int = 8, enq: int = 0) -> DiskRequest:
    request = DiskRequest(spu_id=spu_id, op=DiskOp.READ, sector=sector, nsectors=n)
    request.enqueue_time = enq
    return request


class FakeLedger:
    """A ledger with fixed ratios and a designated background SPU."""

    def __init__(self, ratios, background=()):
        self.ratios = ratios
        self.background = set(background)

    def usage_ratio(self, spu_id, now):
        return self.ratios.get(spu_id, 0.0)

    def is_background(self, spu_id):
        return spu_id in self.background


class TestCScanPick:
    def test_picks_nearest_at_or_after_head(self):
        queue = [req(1, 100), req(1, 50), req(1, 70)]
        assert cscan_pick(queue, head_sector=60).sector == 70

    def test_wraps_to_lowest_when_nothing_ahead(self):
        queue = [req(1, 10), req(1, 30)]
        assert cscan_pick(queue, head_sector=100).sector == 10

    def test_exact_head_position_counts_as_ahead(self):
        queue = [req(1, 60), req(1, 80)]
        assert cscan_pick(queue, head_sector=60).sector == 60

    def test_tie_broken_by_arrival(self):
        first = req(1, 50)
        second = req(2, 50)
        assert cscan_pick([second, first], head_sector=0) is first

    def test_empty_queue_raises(self):
        with pytest.raises(ValueError):
            cscan_pick([], 0)


class TestSstfPick:
    def test_picks_closest_either_side(self):
        queue = [req(1, 100), req(1, 40)]
        assert sstf_pick(queue, head_sector=50).sector == 40

    def test_empty_queue_raises(self):
        with pytest.raises(ValueError):
            sstf_pick([], 0)


class TestSimpleSchedulers:
    def test_cscan_ignores_fairness(self):
        sched = CScanScheduler()
        queue = [req(1, 10), req(2, 90)]
        picked = sched.select(queue, 80, 0, FakeLedger({1: 0.0, 2: 100.0}))
        assert picked.spu_id == 2  # position wins despite SPU 2 hogging

    def test_fifo_is_arrival_order(self):
        first = req(2, 999)
        second = req(1, 0)
        sched = FifoScheduler()
        assert sched.select([second, first], 0, 0, NullLedger()) is first

    def test_sstf_scheduler(self):
        sched = SstfScheduler()
        queue = [req(1, 100), req(1, 11)]
        assert sched.select(queue, 10, 0, NullLedger()).sector == 11


class TestBlindFair:
    def test_picks_neediest_spu(self):
        sched = BlindFairScheduler()
        queue = [req(1, 0, enq=0), req(2, 999, enq=0)]
        ledger = FakeLedger({1: 10.0, 2: 1.0})
        assert sched.select(queue, 0, 0, ledger).spu_id == 2

    def test_fifo_within_spu(self):
        sched = BlindFairScheduler()
        first = req(2, 500)
        second = req(2, 5)
        ledger = FakeLedger({2: 0.0})
        assert sched.select([second, first], 0, 0, ledger) is first

    def test_background_spu_deferred(self):
        sched = BlindFairScheduler()
        queue = [req(1, 0, enq=0), req(9, 10, enq=0)]
        ledger = FakeLedger({1: 100.0, 9: 0.0}, background={9})
        assert sched.select(queue, 0, 0, ledger).spu_id == 1

    def test_background_runs_when_alone(self):
        sched = BlindFairScheduler()
        queue = [req(9, 10, enq=0)]
        ledger = FakeLedger({9: 0.0}, background={9})
        assert sched.select(queue, 0, 0, ledger).spu_id == 9

    def test_starved_background_joins_foreground(self):
        sched = BlindFairScheduler()
        old = req(9, 10, enq=0)
        fresh = req(1, 0, enq=BACKGROUND_STARVATION_LIMIT)
        ledger = FakeLedger({1: 100.0, 9: 0.0}, background={9})
        picked = sched.select([old, fresh], 0, BACKGROUND_STARVATION_LIMIT, ledger)
        assert picked.spu_id == 9


class TestFairCScan:
    def test_all_pass_when_balanced(self):
        sched = FairCScanScheduler(bw_difference_threshold=10.0)
        queue = [req(1, 10), req(2, 50)]
        ledger = FakeLedger({1: 5.0, 2: 5.0})
        assert sched.select(queue, 40, 0, ledger).sector == 50  # position order

    def test_hog_is_denied(self):
        sched = FairCScanScheduler(bw_difference_threshold=10.0)
        queue = [req(1, 10), req(2, 50)]
        # SPU 2's ratio exceeds the mean (52.5) by more than 10.
        ledger = FakeLedger({1: 5.0, 2: 100.0})
        assert sched.select(queue, 40, 0, ledger).spu_id == 1

    def test_single_spu_never_fails(self):
        sched = FairCScanScheduler(bw_difference_threshold=0.0)
        queue = [req(2, 50)]
        ledger = FakeLedger({2: 1e9})
        assert sched.select(queue, 0, 0, ledger).spu_id == 2

    def test_zero_threshold_acts_round_robin(self):
        sched = FairCScanScheduler(bw_difference_threshold=0.0)
        queue = [req(1, 10), req(2, 50)]
        ledger = FakeLedger({1: 1.0, 2: 1.1})
        # SPU 2 is even slightly above the mean -> denied.
        assert sched.select(queue, 40, 0, ledger).spu_id == 1

    def test_huge_threshold_degenerates_to_cscan(self):
        sched = FairCScanScheduler(bw_difference_threshold=1e12)
        queue = [req(1, 10), req(2, 50)]
        ledger = FakeLedger({1: 0.0, 2: 1e9})
        assert sched.select(queue, 40, 0, ledger).sector == 50

    def test_eligible_exposes_passing_requests(self):
        sched = FairCScanScheduler(bw_difference_threshold=10.0)
        queue = [req(1, 10), req(2, 50)]
        ledger = FakeLedger({1: 5.0, 2: 100.0})
        assert {r.spu_id for r in sched.eligible(queue, 0, ledger)} == {1}

    def test_background_deferred_even_if_fair(self):
        sched = FairCScanScheduler(bw_difference_threshold=10.0)
        queue = [req(1, 10, enq=0), req(9, 20, enq=0)]
        ledger = FakeLedger({1: 50.0, 9: 0.0}, background={9})
        assert sched.select(queue, 0, 0, ledger).spu_id == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            FairCScanScheduler(bw_difference_threshold=-1.0)

    def test_nan_threshold_rejected(self):
        # NaN would fail every SPU's criterion, and the fallback would
        # then pass them all: pure C-SCAN.
        with pytest.raises(ValueError, match="threshold must be >= 0"):
            FairCScanScheduler(bw_difference_threshold=float("nan"))


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("pos", CScanScheduler),
            ("iso", BlindFairScheduler),
            ("piso", FairCScanScheduler),
            ("fifo", FifoScheduler),
            ("sstf", SstfScheduler),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_scheduler(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_scheduler("PIso"), FairCScanScheduler)

    def test_threshold_is_threaded(self):
        sched = make_scheduler("piso", bw_difference_threshold=7.0)
        assert sched.bw_difference_threshold == 7.0

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_scheduler("elevator")
