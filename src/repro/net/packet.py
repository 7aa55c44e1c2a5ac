"""Network packets and per-link statistics.

The paper does not implement network-bandwidth isolation but states
(Section 5) that "the implementation would be similar to that of disk
bandwidth, without the complication of head position".  This package
builds exactly that: per-SPU decayed byte counters and a fair link
scheduler, next to a FIFO baseline.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional


class NetOp(enum.Enum):
    SEND = "send"
    RECEIVE = "receive"


#: Maximum transmission unit; larger messages are sent as packet trains.
MTU_BYTES = 1500

_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """One packet queued for a link."""

    spu_id: int
    op: NetOp
    nbytes: int
    #: Fires when the packet has left the wire; the link sets it on a
    #: message's last fragment only.
    on_complete: Optional[Callable[[], None]] = None
    pid: int = -1
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    # --- filled in by the link --------------------------------------------
    enqueue_time: int = -1
    start_time: int = -1
    finish_time: int = -1

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"packet must carry >= 1 byte, got {self.nbytes}")

    @property
    def wait_us(self) -> int:
        """Time queued before transmission began."""
        if self.start_time < 0 or self.enqueue_time < 0:
            raise ValueError("packet has not been transmitted yet")
        return self.start_time - self.enqueue_time

    @property
    def response_us(self) -> int:
        if self.finish_time < 0:
            raise ValueError("packet has not finished yet")
        return self.finish_time - self.enqueue_time


@dataclass
class LinkStats:
    """Per-SPU totals over transmitted packets.

    Integer sums, not a list of packets, so a link's memory is bounded
    by its queue rather than by everything it ever sent.
    """

    packets: Dict[int, int] = field(default_factory=dict)
    nbytes: Dict[int, int] = field(default_factory=dict)
    wait_us: Dict[int, int] = field(default_factory=dict)

    def record(self, packet: Packet) -> None:
        spu_id = packet.spu_id
        self.packets[spu_id] = self.packets.get(spu_id, 0) + 1
        self.nbytes[spu_id] = self.nbytes.get(spu_id, 0) + packet.nbytes
        self.wait_us[spu_id] = self.wait_us.get(spu_id, 0) + packet.wait_us

    @staticmethod
    def _total(per_spu: Dict[int, int], spu_id: Optional[int]) -> int:
        if spu_id is None:
            return sum(per_spu.values())
        return per_spu.get(spu_id, 0)

    def mean_wait_ms(self, spu_id: Optional[int] = None) -> float:
        count = self.count(spu_id)
        if not count:
            return 0.0
        return self._total(self.wait_us, spu_id) / count / 1000.0

    def total_bytes(self, spu_id: Optional[int] = None) -> int:
        return self._total(self.nbytes, spu_id)

    def count(self, spu_id: Optional[int] = None) -> int:
        return self._total(self.packets, spu_id)
