"""The network link: a serial transmitter with a scheduled queue.

A :class:`NetworkLink` transmits one packet at a time at the configured
line rate and charges transmitted bytes to the sending SPU's decayed
counter — the "sectors per second" scheme of Section 3.3 applied to
bytes.  Messages larger than the MTU are fragmented into packet trains
so that fair scheduling can interleave senders mid-message.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.core.accounting import DecayedCounter
from repro.core.spu import SPURegistry
from repro.net.packet import LinkStats, MTU_BYTES, NetOp, Packet
from repro.net.schedulers import LinkScheduler
from repro.sim.engine import Engine
from repro.sim.units import MSEC


class NetByteLedger:
    """Decayed transmitted-bytes accounting per SPU for one link."""

    def __init__(self, registry: SPURegistry, decay_period: int = 500 * MSEC):
        self.registry = registry
        self.decay_period = decay_period
        self._counters: Dict[int, DecayedCounter] = {}

    def _counter(self, spu_id: int, now: int) -> DecayedCounter:
        counter = self._counters.get(spu_id)
        if counter is None:
            counter = DecayedCounter(period=self.decay_period, now=now)
            self._counters[spu_id] = counter
        return counter

    def _share(self, spu_id: int) -> int:
        entitled = self.registry.get(spu_id).disk_bw().entitled
        return entitled if entitled > 0 else 1

    def usage_ratio(self, spu_id: int, now: int) -> float:
        return self._counter(spu_id, now).value(now) / self._share(spu_id)

    def charge(self, spu_id: int, nbytes: int, now: int) -> None:
        self._counter(spu_id, now).add(nbytes, now)


class NetworkLink:
    """One serial link with a FIFO per sending SPU and a scheduling policy.

    Every scheduler serves an SPU's packets in arrival order, so only
    each SPU's oldest packet can be picked: :meth:`_start_next` hands the
    scheduler those heads, O(queued SPUs) per packet.  ``fifos`` holds
    only non-empty deques, keyed by SPU.
    """

    def __init__(
        self,
        engine: Engine,
        scheduler: LinkScheduler,
        ledger: NetByteLedger,
        bandwidth_mbps: float = 100.0,
        per_packet_overhead_us: int = 10,
        link_id: int = 0,
    ):
        # Written as ``not 0 < x < inf`` so NaN, which fails every
        # comparison, is rejected too; infinity would send in zero time.
        if not 0 < bandwidth_mbps < math.inf:
            raise ValueError(
                f"bandwidth_mbps must be positive and finite, got {bandwidth_mbps}"
            )
        self.engine = engine
        self.scheduler = scheduler
        self.ledger = ledger
        self.bandwidth_mbps = bandwidth_mbps
        self.per_packet_overhead_us = per_packet_overhead_us
        self.link_id = link_id
        self.fifos: Dict[int, Deque[Packet]] = {}
        self._queued = 0
        self.stats = LinkStats()
        self.busy = False

    def transmit_us(self, nbytes: int) -> int:
        """Serialization delay for one packet, plus fixed overhead."""
        return round(nbytes * 8 / self.bandwidth_mbps) + self.per_packet_overhead_us

    # --- sending ----------------------------------------------------------

    def send(
        self,
        spu_id: int,
        nbytes: int,
        on_complete: Optional[Callable[[], None]] = None,
        pid: int = -1,
    ) -> int:
        """Queue a message; fragments to MTU-sized packets.

        ``on_complete`` fires when the *last* fragment finishes; it
        rides on that fragment, because an SPU's packets leave in
        order.  Returns the number of packets queued.
        """
        if nbytes <= 0:
            raise ValueError(f"message must carry >= 1 byte, got {nbytes}")
        sizes = [MTU_BYTES] * (nbytes // MTU_BYTES)
        if nbytes % MTU_BYTES:
            sizes.append(nbytes % MTU_BYTES)
        for size in sizes[:-1]:
            self._enqueue(Packet(spu_id, NetOp.SEND, size, pid=pid))
        self._enqueue(Packet(spu_id, NetOp.SEND, sizes[-1],
                             on_complete=on_complete, pid=pid))
        return len(sizes)

    def _enqueue(self, packet: Packet) -> None:
        packet.enqueue_time = self.engine.now
        fifo = self.fifos.get(packet.spu_id)
        if fifo is None:
            self.fifos[packet.spu_id] = deque((packet,))
        else:
            fifo.append(packet)
        self._queued += 1
        if not self.busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self.fifos:
            self.busy = False
            return
        self.busy = True
        heads = [fifo[0] for fifo in self.fifos.values()]
        packet = self.scheduler.select(heads, self.engine.now, self.ledger)
        fifo = self.fifos[packet.spu_id]
        fifo.popleft()
        if not fifo:
            del self.fifos[packet.spu_id]
        self._queued -= 1
        packet.start_time = self.engine.now
        self.engine.call_after(self.transmit_us(packet.nbytes), self._complete, packet)

    def _complete(self, packet: Packet) -> None:
        packet.finish_time = self.engine.now
        self.ledger.charge(packet.spu_id, packet.nbytes, self.engine.now)
        self.stats.record(packet)
        self._start_next()
        if packet.on_complete is not None:
            packet.on_complete()  # simlint: dynamic=continuation

    def queue_depth(self) -> int:
        return self._queued

    def index_drift(self) -> Optional[str]:
        """Where the FIFOs break their invariants; ``None`` if nowhere.

        Each FIFO must be non-empty, hold only its SPU's packets in
        strictly increasing ``packet_id``, and the FIFOs together must
        hold ``queue_depth()`` packets.  SIMSAN's ``link-index`` law
        calls this after events.
        """
        total = 0
        for spu_id, fifo in self.fifos.items():
            if not fifo:
                return f"link {self.link_id}: SPU {spu_id}'s FIFO is empty"
            if any(p.spu_id != spu_id for p in fifo):
                return f"link {self.link_id}: SPU {spu_id}'s FIFO holds another SPU's packet"
            ids = [p.packet_id for p in fifo]
            if any(a >= b for a, b in zip(ids, ids[1:])):
                return f"link {self.link_id}: SPU {spu_id}'s FIFO is out of arrival order"
            total += len(fifo)
        if total != self.queue_depth():
            return (f"link {self.link_id}: FIFOs hold {total} packets,"
                    f" queue_depth() says {self.queue_depth()}")
        return None
