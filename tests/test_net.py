"""Unit tests for the network substrate."""

import math
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SPURegistry
from repro.net import (
    FairShareLinkScheduler,
    FifoLinkScheduler,
    MTU_BYTES,
    NetByteLedger,
    NetOp,
    NetworkLink,
    Packet,
    ThresholdFairLinkScheduler,
    make_link_scheduler,
)
from repro.sim import Engine


def packet(spu_id, nbytes=1000):
    p = Packet(spu_id, NetOp.SEND, nbytes)
    p.enqueue_time = 0
    return p


class FakeLedger:
    def __init__(self, ratios):
        self.ratios = ratios

    def usage_ratio(self, spu_id, now):
        return self.ratios.get(spu_id, 0.0)


@pytest.fixture
def link_setup():
    engine = Engine(seed=4)
    registry = SPURegistry()
    a = registry.create("a")
    b = registry.create("b")
    for spu in (a, b):
        spu.disk_bw().set_entitled(1)
    ledger = NetByteLedger(registry)
    link = NetworkLink(engine, FairShareLinkScheduler(), ledger,
                       bandwidth_mbps=100.0, per_packet_overhead_us=0)
    return engine, link, a, b


class TestPacket:
    def test_zero_bytes_rejected(self):
        with pytest.raises(ValueError):
            Packet(1, NetOp.SEND, 0)

    def test_wait_before_transmit_raises(self):
        with pytest.raises(ValueError):
            _ = Packet(1, NetOp.SEND, 10).wait_us


class TestSchedulers:
    def test_fifo_is_arrival_order(self):
        first = packet(2)
        second = packet(1)
        sched = FifoLinkScheduler()
        assert sched.select([second, first], 0, FakeLedger({})) is first

    def test_fair_picks_neediest(self):
        sched = FairShareLinkScheduler()
        queue = [packet(1), packet(2)]
        assert sched.select(queue, 0, FakeLedger({1: 100.0, 2: 1.0})).spu_id == 2

    def test_fair_fifo_within_spu(self):
        sched = FairShareLinkScheduler()
        first = packet(1)
        second = packet(1)
        assert sched.select([second, first], 0, FakeLedger({1: 0.0})) is first

    def test_threshold_defers_hog(self):
        sched = ThresholdFairLinkScheduler(threshold=10.0)
        hog_first = packet(1)
        light = packet(2)
        ledger = FakeLedger({1: 100.0, 2: 0.0})
        assert sched.select([hog_first, light], 0, ledger).spu_id == 2

    def test_threshold_fifo_when_balanced(self):
        sched = ThresholdFairLinkScheduler(threshold=1000.0)
        first = packet(1)
        second = packet(2)
        ledger = FakeLedger({1: 5.0, 2: 5.0})
        assert sched.select([first, second], 0, ledger) is first

    def test_threshold_single_spu_passes(self):
        sched = ThresholdFairLinkScheduler(threshold=0.0)
        p = packet(1)
        assert sched.select([p], 0, FakeLedger({1: 1e9})) is p

    def test_negative_threshold_rejected(self):
        for threshold in (-1.0, math.nan):
            with pytest.raises(ValueError, match="threshold"):
                ThresholdFairLinkScheduler(threshold)

    def test_factory(self):
        assert isinstance(make_link_scheduler("fifo"), FifoLinkScheduler)
        assert isinstance(make_link_scheduler("fair"), FairShareLinkScheduler)
        assert make_link_scheduler("threshold", 5.0).threshold == 5.0
        with pytest.raises(ValueError):
            make_link_scheduler("wrr")


class TestLink:
    def test_serialization_delay(self, link_setup):
        _engine, link, _a, _b = link_setup
        # 1500 bytes at 100 Mb/s = 120 us.
        assert link.transmit_us(1500) == 120

    def test_send_fragments_to_mtu(self, link_setup):
        engine, link, a, _b = link_setup
        n = link.send(a.spu_id, 4000)
        assert n == 3  # 1500 + 1500 + 1000
        engine.run()
        assert link.stats.count() == 3
        assert link.stats.total_bytes() == 4000

    def test_completion_fires_after_last_fragment(self, link_setup):
        engine, link, a, _b = link_setup
        done = []
        link.send(a.spu_id, 3000, on_complete=lambda: done.append(engine.now))
        engine.run()
        # Two back-to-back MTU fragments, 120 us each at 100 Mb/s.
        assert done == [2 * link.transmit_us(MTU_BYTES)] == [240]
        assert link.stats.count() == 2

    def test_bytes_charged_to_ledger(self, link_setup):
        engine, link, a, _b = link_setup
        link.send(a.spu_id, 3000)
        engine.run()
        assert link.ledger.usage_ratio(a.spu_id, engine.now) == 3000.0

    def test_fair_link_interleaves_senders(self, link_setup):
        engine, link, a, b = link_setup
        order = []
        record = link.stats.record

        def spy(packet):
            order.append(packet.spu_id)
            record(packet)

        link.stats.record = spy  # called as each packet leaves the wire
        link.send(a.spu_id, MTU_BYTES * 20)
        link.send(b.spu_id, MTU_BYTES * 20)
        engine.run()
        assert len(order) == 40
        # After the first packet, the two SPUs alternate.
        switches = sum(1 for x, y in zip(order, order[1:]) if x != y)
        assert switches > 10

    def test_zero_byte_send_rejected(self, link_setup):
        _engine, link, a, _b = link_setup
        with pytest.raises(ValueError):
            link.send(a.spu_id, 0)

    def test_bad_rate_rejected(self, link_setup):
        engine, link, _a, _b = link_setup
        for rate in (0, -10.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="bandwidth_mbps"):
                NetworkLink(engine, FifoLinkScheduler(), link.ledger, bandwidth_mbps=rate)


class TestKernelIntegration:
    def test_send_network_syscall(self):
        from repro.core import piso_scheme
        from repro.disk.model import fast_disk
        from repro.kernel import (
            DiskSpec, Kernel, MachineConfig, NicSpec, SendNetwork,
        )

        kernel = Kernel(
            MachineConfig(
                ncpus=1, memory_mb=8, disks=[DiskSpec(geometry=fast_disk())],
                nics=[NicSpec(bandwidth_mbps=100.0, policy="fair")],
                scheme=piso_scheme(),
            )
        )
        spu = kernel.create_spu("u")
        kernel.boot()

        def job():
            yield SendNetwork(15_000)

        proc = kernel.spawn(job(), spu)
        kernel.run()
        # 15 kB at 100 Mb/s = 1.2 ms + per-packet overhead.
        assert proc.response_us >= 1200
        assert kernel.links[0].stats.total_bytes() == 15_000

    def test_unknown_nic_raises(self):
        from repro.core import piso_scheme
        from repro.disk.model import fast_disk
        from repro.kernel import (
            DiskSpec, Kernel, KernelError, MachineConfig, SendNetwork,
        )

        kernel = Kernel(
            MachineConfig(ncpus=1, memory_mb=8,
                          disks=[DiskSpec(geometry=fast_disk())],
                          scheme=piso_scheme())
        )
        spu = kernel.create_spu("u")
        kernel.boot()

        def job():
            yield SendNetwork(100, nic=3)

        with pytest.raises(KernelError):
            kernel.spawn(job(), spu)

    def test_negative_nic_rejected(self):
        from repro.kernel import SendNetwork

        with pytest.raises(ValueError, match="nic"):
            SendNetwork(3000, nic=-1)


class TestExperiment:
    def test_fair_link_rescues_rpc(self):
        from repro.experiments import run_network_isolation

        fifo = run_network_isolation("fifo")
        fair = run_network_isolation("fair")
        assert fair.rpc_response_s < 0.5 * fifo.rpc_response_s
        assert fair.rpc_wait_ms < 0.25 * fifo.rpc_wait_ms
        # The bulk transfer barely notices.
        assert fair.bulk_response_s < 1.1 * fifo.bulk_response_s

    def test_goodput_unaffected_by_fairness(self):
        from repro.experiments import run_network_isolation

        fifo = run_network_isolation("fifo")
        fair = run_network_isolation("fair")
        assert abs(fair.goodput_mbps - fifo.goodput_mbps) < 5.0


class ScanLink:
    """The single-queue link the per-SPU FIFOs replaced, as a test oracle.

    The scheduler sees every queued packet, its pick leaves the list by
    ``list.remove``, a counter per message fires the message's
    completion, and every transmitted packet is kept.
    """

    def __init__(self, engine, scheduler, ledger, bandwidth_mbps, overhead_us):
        self.engine = engine
        self.scheduler = scheduler
        self.ledger = ledger
        self.bandwidth_mbps = bandwidth_mbps
        self.overhead_us = overhead_us
        self.queue = []
        self.completed = []
        self.busy = False

    def send(self, spu_id, nbytes, on_complete=None):
        sizes = [MTU_BYTES] * (nbytes // MTU_BYTES)
        if nbytes % MTU_BYTES:
            sizes.append(nbytes % MTU_BYTES)
        remaining = [len(sizes)]

        def fragment_done():
            remaining[0] -= 1
            if remaining[0] == 0 and on_complete is not None:
                on_complete()

        for size in sizes:
            packet = Packet(spu_id, NetOp.SEND, size, on_complete=fragment_done)
            packet.enqueue_time = self.engine.now
            self.queue.append(packet)
            if not self.busy:
                self._start_next()

    def _start_next(self):
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        packet = self.scheduler.select(self.queue, self.engine.now, self.ledger)
        self.queue.remove(packet)
        packet.start_time = self.engine.now
        delay = round(packet.nbytes * 8 / self.bandwidth_mbps) + self.overhead_us
        self.engine.call_after(delay, self._complete, packet)

    def _complete(self, packet):
        packet.finish_time = self.engine.now
        self.ledger.charge(packet.spu_id, packet.nbytes, self.engine.now)
        self.completed.append(packet)
        self._start_next()
        packet.on_complete()

    def _packets(self, spu_id):
        if spu_id is None:
            return self.completed
        return [p for p in self.completed if p.spu_id == spu_id]

    def count(self, spu_id=None):
        return len(self._packets(spu_id))

    def total_bytes(self, spu_id=None):
        return sum(p.nbytes for p in self._packets(spu_id))

    def mean_wait_ms(self, spu_id=None):
        packets = self._packets(spu_id)
        if not packets:
            return 0.0
        return sum(p.wait_us for p in packets) / len(packets) / 1000.0


RATE_MBPS = 100.0
OVERHEAD_US = 10


@st.composite
def link_runs(draw):
    """A policy, per-SPU shares, and timed sends ``(spu, nbytes, gap_us)``."""
    policy = draw(st.sampled_from(["fifo", "fair", "threshold"]))
    threshold = draw(st.sampled_from([0.0, 1500.0, 16384.0]))
    shares = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    sends = draw(st.lists(
        st.tuples(st.integers(0, len(shares) - 1),
                  st.integers(1, 4 * MTU_BYTES),
                  st.integers(0, 500)),
        min_size=1, max_size=30,
    ))
    return policy, threshold, shares, sends


def drive(make_link, policy, threshold, shares, sends):
    """Schedule ``sends`` on a fresh link built by ``make_link``.

    Returns the engine (not yet run), the ledger, the link, the SPU ids,
    and the list each message appends ``(index, completion time)`` to.
    """
    engine = Engine(seed=0)
    registry = SPURegistry()
    spu_ids = []
    for i, share in enumerate(shares):
        spu = registry.create(f"s{i}")
        spu.disk_bw().set_entitled(share)
        spu_ids.append(spu.spu_id)
    ledger = NetByteLedger(registry)
    link = make_link(engine, make_link_scheduler(policy, threshold), ledger)
    done = []

    def finished(message):
        done.append((message, engine.now))

    now = 0
    for message, (spu, nbytes, gap_us) in enumerate(sends):
        now += gap_us
        engine.call_at(now, link.send, spu_ids[spu], nbytes, partial(finished, message))
    return engine, ledger, link, spu_ids, done


class TestAgainstQueueScan:
    @settings(max_examples=60, deadline=None)
    @given(link_runs())
    def test_random_sends_match_the_queue_scan(self, run):
        sent = []

        def fifo_link(engine, scheduler, ledger):
            link = NetworkLink(engine, scheduler, ledger, bandwidth_mbps=RATE_MBPS,
                               per_packet_overhead_us=OVERHEAD_US)
            record = link.stats.record

            def spy(packet):
                assert link.index_drift() is None
                sent.append(packet)
                record(packet)

            link.stats.record = spy
            return link

        def scan_link(engine, scheduler, ledger):
            return ScanLink(engine, scheduler, ledger, RATE_MBPS, OVERHEAD_US)

        engine, ledger, link, spu_ids, done = drive(fifo_link, *run)
        engine.run()
        twin_engine, twin_ledger, twin, _, twin_done = drive(scan_link, *run)
        twin_engine.run()

        def trace(packets):
            return [(p.spu_id, p.nbytes, p.start_time, p.finish_time) for p in packets]

        assert trace(sent) == trace(twin.completed)
        assert done == twin_done and len(done) == len(run[3])
        assert engine.now == twin_engine.now
        assert link.queue_depth() == 0 and not link.fifos
        for spu_id in spu_ids:
            assert ledger.usage_ratio(spu_id, engine.now) == \
                twin_ledger.usage_ratio(spu_id, engine.now)
        for spu_id in spu_ids + [None]:
            assert link.stats.count(spu_id) == twin.count(spu_id)
            assert link.stats.total_bytes(spu_id) == twin.total_bytes(spu_id)
            assert link.stats.mean_wait_ms(spu_id) == twin.mean_wait_ms(spu_id)
