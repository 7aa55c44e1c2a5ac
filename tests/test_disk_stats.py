"""DiskStats' per-SPU totals against the list of requests they replace.

``ListDiskStats`` is the old implementation, kept here as the oracle:
it holds every completed request and answers each query by summing the
list.  The totals must give exactly the same answers, floats included,
and raise where the list raised.
"""

from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk import DiskDrive, DiskOp, DiskRequest, DiskStats, hp97560, make_scheduler
from repro.disk.drive import RetryPolicy
from repro.sim import Engine
from repro.sim.units import MSEC
from tests.disk_recorder import record_requests


class ListDiskStats:
    """The list-keeping DiskStats the totals replaced."""

    def __init__(self) -> None:
        self.completed: List[DiskRequest] = []
        self.failed_requests = 0
        self.ok_sectors = 0

    def record(self, request: DiskRequest) -> None:
        self.completed.append(request)
        if request.failed:
            self.failed_requests += 1
        else:
            self.ok_sectors += request.nsectors

    def for_spu(self, spu_id: int) -> List[DiskRequest]:
        return [r for r in self.completed if r.spu_id == spu_id]

    def mean_wait_ms(self, spu_id: Optional[int] = None) -> float:
        reqs = self.completed if spu_id is None else self.for_spu(spu_id)
        if not reqs:
            return 0.0
        return sum(r.wait_us for r in reqs) / len(reqs) / 1000.0

    def mean_latency_ms(self, spu_id: Optional[int] = None) -> float:
        reqs = self.completed if spu_id is None else self.for_spu(spu_id)
        if not reqs:
            return 0.0
        return sum(r.service_us for r in reqs) / len(reqs) / 1000.0

    def mean_seek_ms(self, spu_id: Optional[int] = None) -> float:
        reqs = self.completed if spu_id is None else self.for_spu(spu_id)
        if not reqs:
            return 0.0
        return sum(r.seek_us for r in reqs) / len(reqs) / 1000.0

    def total_sectors(self, spu_id: Optional[int] = None) -> int:
        reqs = self.completed if spu_id is None else self.for_spu(spu_id)
        return sum(r.nsectors for r in reqs)

    def count(self, spu_id: Optional[int] = None) -> int:
        return len(self.completed if spu_id is None else self.for_spu(spu_id))


SPUS = (1, 2, 3, 4)


def answer(fn, spu_id):
    """A query's value, or the exception type it raised."""
    try:
        return fn(spu_id)
    except ValueError as exc:
        return type(exc)


def assert_same_answers(stats: DiskStats, oracle: ListDiskStats) -> None:
    assert stats.failed_requests == oracle.failed_requests
    assert stats.ok_sectors == oracle.ok_sectors
    assert stats.busy_us == sum(r.service_us for r in oracle.completed)
    # SPU 0 never issues a request: an empty selection.
    for spu_id in (None, 0) + SPUS:
        for name in ("count", "total_sectors", "mean_wait_ms",
                     "mean_latency_ms", "mean_seek_ms"):
            got = answer(getattr(stats, name), spu_id)
            want = answer(getattr(oracle, name), spu_id)
            assert got == want, (name, spu_id)
            assert type(got) is type(want), (name, spu_id)


@st.composite
def finished_request(draw):
    request = DiskRequest(
        draw(st.sampled_from(SPUS)),
        draw(st.sampled_from(list(DiskOp))),
        draw(st.integers(0, 100_000)),
        draw(st.integers(1, 64)),
    )
    request.enqueue_time = draw(st.integers(0, 10**9))
    request.start_time = request.enqueue_time + draw(st.integers(0, 10**7))
    request.seek_us = draw(st.integers(0, 30_000))
    request.rotation_us = draw(st.integers(0, 20_000))
    request.transfer_us = draw(st.integers(0, 50_000))
    request.finish_time = request.start_time + request.service_us
    request.failed = draw(st.booleans())
    return request


class TestAgainstRequestList:
    @given(
        requests=st.lists(finished_request(), max_size=40),
        unserviced=st.one_of(
            st.none(), st.tuples(st.sampled_from(SPUS), st.integers(0, 40))
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_totals_answer_as_the_list_did(self, requests, unserviced):
        if unserviced is not None:
            # A request recorded before it started: its wait is
            # undefined, so the mean wait over any selection holding it
            # raises.
            spu_id, at = unserviced
            lost = DiskRequest(spu_id, DiskOp.READ, 0, 8)
            lost.failed = True
            requests.insert(min(at, len(requests)), lost)
        stats, oracle = DiskStats(), ListDiskStats()
        for request in requests:
            stats.record(request)
            oracle.record(request)
            assert_same_answers(stats, oracle)

    def test_an_unserviced_request_raises_only_where_it_counts(self):
        stats = DiskStats()
        stats.record(DiskRequest(1, DiskOp.READ, 0, 8))
        with pytest.raises(ValueError, match="not been serviced"):
            stats.mean_wait_ms()
        with pytest.raises(ValueError, match="not been serviced"):
            stats.mean_wait_ms(1)
        assert stats.mean_wait_ms(2) == 0.0
        assert stats.count(1) == 1

    def test_a_drive_with_transient_errors(self):
        # Real service times, retries and failed requests from a drive
        # whose attempts error out half the time on a two-attempt budget.
        engine = Engine(seed=3)
        drive = DiskDrive(
            engine, hp97560(), make_scheduler("pos"),
            retry=RetryPolicy(max_attempts=2, base_backoff_us=100),
        )
        completed = record_requests(drive)
        drive.inject_transient(200 * MSEC, error_rate=0.5)
        for i in range(60):
            drive.submit(DiskRequest(SPUS[i % 3], DiskOp.READ, 997 * i, 1 + i % 16))
        engine.run()
        assert drive.stats.failed_requests > 0
        assert drive.stats.count() == 60
        oracle = ListDiskStats()
        for request in completed:
            oracle.record(request)
        assert_same_answers(drive.stats, oracle)
