"""Disk request schedulers: Pos (C-SCAN), Iso (blind fair), PIso, and
two extra baselines (FIFO, SSTF) for ablations.

A scheduler only *chooses* the next request from the queue; the drive
(:mod:`repro.disk.drive`) owns timing and accounting.  Fairness-aware
schedulers consult a :class:`BandwidthLedger` for each SPU's decayed
bandwidth usage relative to its share.
"""

from __future__ import annotations

import abc
from typing import List, Protocol, Sequence

from repro.disk.request import DiskRequest


class BandwidthLedger(Protocol):
    """Per-SPU disk bandwidth usage, as seen by fairness policies."""

    def usage_ratio(self, spu_id: int, now: int) -> float:
        """Decayed sectors transferred divided by the SPU's share."""
        ...

    def is_background(self, spu_id: int) -> bool:
        """True for the ``shared`` SPU, which gets lowest priority."""
        ...


class NullLedger:
    """A ledger for schedulers that ignore fairness (Pos/FIFO/SSTF)."""

    __slots__ = ()

    def usage_ratio(self, spu_id: int, now: int) -> float:
        return 0.0

    def is_background(self, spu_id: int) -> bool:
        return False


def cscan_pick(queue: Sequence[DiskRequest], head_sector: int) -> DiskRequest:
    """C-SCAN order: the nearest request at/after the head, else wrap.

    Requests are ordered by start sector; the head sweeps upward and
    jumps back to the lowest outstanding request at the end of the
    sweep.  Ties are broken by arrival order (request id).
    """
    if not queue:
        raise ValueError("cannot pick from an empty queue")
    ahead = [r for r in queue if r.sector >= head_sector]
    candidates = ahead if ahead else queue
    return min(candidates, key=lambda r: (r.sector, r.request_id))


def sstf_pick(queue: Sequence[DiskRequest], head_sector: int) -> DiskRequest:
    """Shortest-seek-first: nearest request by sector distance."""
    if not queue:
        raise ValueError("cannot pick from an empty queue")
    return min(queue, key=lambda r: (abs(r.sector - head_sector), r.request_id))


class DiskScheduler(abc.ABC):
    """Chooses the next request to service."""

    __slots__ = ()

    name: str = "abstract"

    @abc.abstractmethod
    def select(
        self,
        queue: Sequence[DiskRequest],
        head_sector: int,
        now: int,
        ledger: BandwidthLedger,
    ) -> DiskRequest:
        """Pick one request from a non-empty ``queue``."""


class CScanScheduler(DiskScheduler):
    """Stock IRIX 5.3 behaviour: head position only ("Pos").

    The requesting SPU plays no part, so a stream of contiguous requests
    (a large copy, a core dump) can lock out everyone else.
    """

    __slots__ = ()

    name = "pos"

    def select(self, queue, head_sector, now, ledger):
        return cscan_pick(queue, head_sector)


class FifoScheduler(DiskScheduler):
    """Strict arrival order.  Fair per-request, terrible seek behaviour."""

    __slots__ = ()

    name = "fifo"

    def select(self, queue, head_sector, now, ledger):
        return min(queue, key=lambda r: r.request_id)


class SstfScheduler(DiskScheduler):
    """Greedy shortest-seek; can starve distant requests."""

    __slots__ = ()

    name = "sstf"

    def select(self, queue, head_sector, now, ledger):
        return sstf_pick(queue, head_sector)


#: A background (shared-SPU) request that has waited this long joins the
#: foreground candidates anyway.  The paper gives the shared SPU "the
#: lowest priority" without an aging rule; the valve only matters under
#: pathological always-full queues and is far above normal wait times.
BACKGROUND_STARVATION_LIMIT = 500 * 1000  # 500 ms in microseconds


def _split_background(
    queue: Sequence[DiskRequest], ledger: BandwidthLedger, now: int
) -> List[DiskRequest]:
    """Foreground requests if any exist, else the whole queue.

    The ``shared`` SPU's delayed writes run at the lowest priority
    (Section 3.3): they are only schedulable when no user SPU has a
    request outstanding, or once they have aged past the starvation
    limit.
    """
    foreground = [
        r
        for r in queue
        if not ledger.is_background(r.spu_id)
        or now - r.enqueue_time >= BACKGROUND_STARVATION_LIMIT
    ]
    return foreground if foreground else list(queue)


class BlindFairScheduler(DiskScheduler):
    """"Iso": fairness only, ignoring head position (Section 4.5).

    Always serves the queued SPU with the lowest usage ratio, FIFO
    within the SPU.  Provides strong isolation but pays extra seeks.
    """

    __slots__ = ()

    name = "iso"

    def select(self, queue, head_sector, now, ledger):
        candidates = _split_background(queue, ledger, now)
        ratios = {
            spu_id: ledger.usage_ratio(spu_id, now)
            for spu_id in sorted({r.spu_id for r in candidates})
        }
        neediest = min(ratios, key=lambda s: (ratios[s], s))
        own = [r for r in candidates if r.spu_id == neediest]
        return min(own, key=lambda r: r.request_id)


class FairCScanScheduler(DiskScheduler):
    """"PIso": head-position scheduling under a fairness criterion.

    Requests are chosen in C-SCAN order as long as every SPU with
    outstanding requests passes the fairness criterion.  An SPU *fails*
    when its usage ratio exceeds the mean ratio of active SPUs by more
    than ``bw_difference_threshold``; it is then denied the disk until
    other SPUs catch up (or it is alone).  The threshold trades
    isolation (0 → round-robin-like) against throughput (∞ → pure
    C-SCAN); see the ablation bench.
    """

    __slots__ = ("bw_difference_threshold",)

    name = "piso"

    def __init__(self, bw_difference_threshold: float):
        if not bw_difference_threshold >= 0:  # NaN fails too
            raise ValueError(
                f"threshold must be >= 0, got {bw_difference_threshold}"
            )
        self.bw_difference_threshold = bw_difference_threshold

    def eligible(
        self, queue: Sequence[DiskRequest], now: int, ledger: BandwidthLedger
    ) -> List[DiskRequest]:
        """The requests whose SPUs currently pass the fairness criterion."""
        candidates = _split_background(queue, ledger, now)
        active = sorted({r.spu_id for r in candidates})
        if len(active) <= 1:
            # Sharing happens naturally: an SPU alone in the queue can
            # never fail the criterion.
            return list(candidates)
        ratios = {s: ledger.usage_ratio(s, now) for s in active}
        mean = sum(ratios.values()) / len(active)
        passing = {
            s for s in active if ratios[s] <= mean + self.bw_difference_threshold
        }
        if not passing:  # pragma: no cover - min ratio is always <= mean
            passing = set(active)
        return [r for r in candidates if r.spu_id in passing]

    def select(self, queue, head_sector, now, ledger):
        return cscan_pick(self.eligible(queue, now, ledger), head_sector)


def make_scheduler(policy_name: str, bw_difference_threshold: float = 256.0) -> DiskScheduler:
    """Build a scheduler from a policy name used in the paper/benches."""
    name = policy_name.lower()
    if name == "pos":
        return CScanScheduler()
    if name == "iso":
        return BlindFairScheduler()
    if name == "piso":
        return FairCScanScheduler(bw_difference_threshold)
    if name == "fifo":
        return FifoScheduler()
    if name == "sstf":
        return SstfScheduler()
    raise ValueError(f"unknown disk scheduling policy {policy_name!r}")
