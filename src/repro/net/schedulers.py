"""Link schedulers: FIFO (no isolation) and per-SPU fair share.

Fair sharing is the disk PIso policy minus the head position: an SPU's
decayed bytes-transferred count, divided by its bandwidth share, is
compared against the other queued SPUs; the neediest SPU transmits
next, FIFO within the SPU.  A threshold variant mirrors the disk's BW
difference threshold: below the threshold, plain FIFO order holds
(cheap, keeps packet trains together); an SPU that exceeds the mean by
the threshold is deferred.
"""

from __future__ import annotations

import abc
from typing import Dict, Protocol, Sequence

from repro.net.packet import Packet


class ByteLedger(Protocol):
    """Per-SPU transmitted-byte accounting, decayed."""

    def usage_ratio(self, spu_id: int, now: int) -> float:
        ...


class LinkScheduler(abc.ABC):
    """Chooses the next packet to transmit."""

    name = "abstract"

    @abc.abstractmethod
    def select(
        self, queue: Sequence[Packet], now: int, ledger: ByteLedger
    ) -> Packet:
        """Pick one packet from a non-empty queue.

        The link passes only each queued SPU's oldest packet: every
        policy here serves an SPU's packets in arrival order.
        """


class FifoLinkScheduler(LinkScheduler):
    """Stock behaviour: strict arrival order, no isolation.

    A bulk sender's packet train queues ahead of everyone else —
    the network analogue of the disk's core-dump lockout.
    """

    name = "fifo"

    def select(self, queue, now, ledger):
        if len(queue) == 1:
            return queue[0]
        return min(queue, key=lambda p: p.packet_id)


class FairShareLinkScheduler(LinkScheduler):
    """Serve the SPU with the lowest bytes-per-share, FIFO within it."""

    name = "fair"

    def select(self, queue, now, ledger):
        if len(queue) == 1:
            # The ratio is read even for a lone head: the read creates
            # the SPU's counter and anchors its decay grid, which later
            # ratios depend on.
            head = queue[0]
            ledger.usage_ratio(head.spu_id, now)
            return head
        ratios: Dict[int, float] = {
            spu_id: ledger.usage_ratio(spu_id, now)
            for spu_id in sorted({p.spu_id for p in queue})
        }
        neediest = min(ratios, key=lambda s: (ratios[s], s))
        own = [p for p in queue if p.spu_id == neediest]
        return min(own, key=lambda p: p.packet_id)


class ThresholdFairLinkScheduler(LinkScheduler):
    """FIFO until an SPU exceeds the mean usage ratio by a threshold.

    The network counterpart of the disk's BW difference threshold:
    0 degenerates to per-packet fair share, infinity to plain FIFO.
    """

    name = "threshold"

    def __init__(self, threshold: float):
        if not threshold >= 0:  # NaN fails too
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        self.threshold = threshold

    def select(self, queue, now, ledger):
        if len(queue) == 1:
            return queue[0]
        active = sorted({p.spu_id for p in queue})
        if len(active) <= 1:
            return min(queue, key=lambda p: p.packet_id)
        ratios = {s: ledger.usage_ratio(s, now) for s in active}
        mean = sum(ratios.values()) / len(active)
        passing = {s for s in active if ratios[s] <= mean + self.threshold}
        candidates = [p for p in queue if p.spu_id in passing]
        if not candidates:  # pragma: no cover - min ratio always passes
            candidates = list(queue)
        return min(candidates, key=lambda p: p.packet_id)


def make_link_scheduler(name: str, threshold: float = 16384.0) -> LinkScheduler:
    """Build a link scheduler by policy name."""
    lowered = name.lower()
    if lowered == "fifo":
        return FifoLinkScheduler()
    if lowered == "fair":
        return FairShareLinkScheduler()
    if lowered == "threshold":
        return ThresholdFairLinkScheduler(threshold)
    raise ValueError(f"unknown link scheduling policy {name!r}")
