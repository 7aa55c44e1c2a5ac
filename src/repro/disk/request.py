"""Disk request representation and per-request statistics."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


class DiskOp(enum.Enum):
    READ = "read"
    WRITE = "write"


_request_ids = itertools.count(1)


@dataclass(eq=False)
class DiskRequest:
    """One I/O request: a contiguous run of sectors for one SPU.

    Timing fields are filled in by the drive as the request moves
    through the queue; they are the raw material for the paper's
    "response time / average wait time / average latency" columns.
    Requests compare by identity, so removing one from a queue does not
    compare every field of the requests ahead of it.
    """

    spu_id: int
    op: DiskOp
    sector: int
    nsectors: int
    #: Called at completion time (used to wake blocked processes).
    on_complete: Optional[Callable[["DiskRequest"], None]] = None
    #: Identifies the issuing process for tracing; -1 for daemons.
    pid: int = -1
    #: How the transferred sectors are charged to SPUs at completion.
    #: ``None`` charges everything to ``spu_id``.  Shared delayed writes
    #: are *scheduled* under the shared SPU but their sectors are
    #: charged back to the owning user SPUs (Section 3.3).
    charges: Optional[Dict[int, int]] = None
    request_id: int = field(default_factory=lambda: next(_request_ids))
    #: Absolute completion deadline (simulated µs); transient-error
    #: retries stop once the next attempt could not finish before it.
    #: ``None`` uses the drive's retry-policy default.
    deadline_us: Optional[int] = None

    # --- filled in by the drive ------------------------------------------------
    enqueue_time: int = -1
    start_time: int = -1
    finish_time: int = -1
    seek_us: int = 0
    rotation_us: int = 0
    transfer_us: int = 0
    #: Service attempts so far (> 1 after transient-error retries).
    attempts: int = 0
    #: Set when the request completed with an unrecoverable I/O error
    #: (retry budget or deadline exhausted); callers must check it.
    failed: bool = False

    def __post_init__(self) -> None:
        if self.nsectors <= 0:
            raise ValueError(f"request must cover >= 1 sector, got {self.nsectors}")
        if self.sector < 0:
            raise ValueError(f"negative start sector {self.sector}")

    @property
    def last_sector(self) -> int:
        return self.sector + self.nsectors - 1

    @property
    def wait_us(self) -> int:
        """Time spent queued before service began."""
        if self.start_time < 0 or self.enqueue_time < 0:
            raise ValueError("request has not been serviced yet")
        return self.start_time - self.enqueue_time

    @property
    def service_us(self) -> int:
        """Mechanical service time (seek + rotation + transfer)."""
        return self.seek_us + self.rotation_us + self.transfer_us

    @property
    def response_us(self) -> int:
        """Total time from enqueue to completion."""
        if self.finish_time < 0:
            raise ValueError("request has not completed yet")
        return self.finish_time - self.enqueue_time


@dataclass
class DiskStats:
    """Aggregated statistics over completed requests on one drive."""

    completed: List[DiskRequest] = field(default_factory=list)
    #: Service attempts that came back with a transient I/O error.
    transient_errors: int = 0
    #: Retries issued after transient errors (= errors that were not
    #: terminal for their request).
    retries: int = 0
    #: Requests that exhausted their retry budget or deadline and
    #: completed with ``failed=True``.
    failed_requests: int = 0
    #: Sectors moved by *successful* completions — exactly the sectors
    #: the drive charges to its bandwidth ledger, so the sanitizer can
    #: check conservation without walking ``completed``.
    ok_sectors: int = 0

    def record(self, request: DiskRequest) -> None:
        self.completed.append(request)
        if request.failed:
            self.failed_requests += 1
        else:
            self.ok_sectors += request.nsectors

    def for_spu(self, spu_id: int) -> List[DiskRequest]:
        return [r for r in self.completed if r.spu_id == spu_id]

    def mean_wait_ms(self, spu_id: Optional[int] = None) -> float:
        """Average queue wait in milliseconds (per SPU or overall)."""
        reqs = self.completed if spu_id is None else self.for_spu(spu_id)
        if not reqs:
            return 0.0
        return sum(r.wait_us for r in reqs) / len(reqs) / 1000.0

    def mean_latency_ms(self, spu_id: Optional[int] = None) -> float:
        """Average mechanical latency (seek+rotation+transfer) in ms."""
        reqs = self.completed if spu_id is None else self.for_spu(spu_id)
        if not reqs:
            return 0.0
        return sum(r.service_us for r in reqs) / len(reqs) / 1000.0

    def mean_seek_ms(self, spu_id: Optional[int] = None) -> float:
        """Average seek component in milliseconds."""
        reqs = self.completed if spu_id is None else self.for_spu(spu_id)
        if not reqs:
            return 0.0
        return sum(r.seek_us for r in reqs) / len(reqs) / 1000.0

    def total_sectors(self, spu_id: Optional[int] = None) -> int:
        reqs = self.completed if spu_id is None else self.for_spu(spu_id)
        return sum(r.nsectors for r in reqs)

    def count(self, spu_id: Optional[int] = None) -> int:
        return len(self.completed if spu_id is None else self.for_spu(spu_id))
