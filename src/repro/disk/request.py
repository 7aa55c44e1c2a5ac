"""Disk request representation and per-SPU drive statistics."""

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


# Columns of DiskStats' per-SPU totals.
_COUNT, _SECTORS, _WAIT, _SERVICE, _SEEK, _UNSERVICED = range(6)


class DiskStats:
    """Per-SPU totals over the completed requests on one drive.

    Integer sums, not a list of requests, so a drive's memory is
    bounded by its queue rather than by everything it ever served (a
    finished request would keep its completion closure and, for
    writeback, its flushed cache blocks alive).  Every mean is the
    same integer sum divided the same way as over a list, so answers
    are bit-identical to summing the requests.
    """

    __slots__ = (
        "transient_errors", "retries", "failed_requests", "ok_sectors",
        "_per_spu",
    )

    def __init__(self) -> None:
        #: Service attempts that came back with a transient I/O error.
        self.transient_errors = 0
        #: Retries issued after transient errors (= errors that were not
        #: terminal for their request).
        self.retries = 0
        #: Requests that exhausted their retry budget or deadline and
        #: completed with ``failed=True``.
        self.failed_requests = 0
        #: Sectors moved by *successful* completions — exactly the
        #: sectors the drive charges to its bandwidth ledger, so the
        #: sanitizer can check conservation against it.
        self.ok_sectors = 0
        #: spu_id -> [count, sectors, wait µs, service µs, seek µs,
        #: requests recorded before service began].
        self._per_spu: Dict[int, List[int]] = {}

    def record(self, request: DiskRequest) -> None:
        if request.failed:
            self.failed_requests += 1
        else:
            self.ok_sectors += request.nsectors
        totals = self._per_spu.get(request.spu_id)
        if totals is None:
            totals = self._per_spu[request.spu_id] = [0, 0, 0, 0, 0, 0]
        totals[_COUNT] += 1
        totals[_SECTORS] += request.nsectors
        if request.start_time < 0 or request.enqueue_time < 0:
            # Its wait is undefined; mean_wait_ms raises, as wait_us does.
            totals[_UNSERVICED] += 1
        else:
            totals[_WAIT] += request.start_time - request.enqueue_time
        totals[_SERVICE] += request.service_us
        totals[_SEEK] += request.seek_us

    @property
    def busy_us(self) -> int:
        """Mechanical service time of every recorded request."""
        return self._total(_SERVICE, None)

    def _total(self, column: int, spu_id: Optional[int]) -> int:
        if spu_id is None:
            return sum(totals[column] for totals in self._per_spu.values())
        totals = self._per_spu.get(spu_id)
        return totals[column] if totals is not None else 0

    def _mean_ms(self, column: int, spu_id: Optional[int]) -> float:
        count = self._total(_COUNT, spu_id)
        if not count:
            return 0.0
        return self._total(column, spu_id) / count / 1000.0

    def mean_wait_ms(self, spu_id: Optional[int] = None) -> float:
        """Average queue wait in milliseconds (per SPU or overall)."""
        if self._total(_UNSERVICED, spu_id):
            raise ValueError("request has not been serviced yet")
        return self._mean_ms(_WAIT, spu_id)

    def mean_latency_ms(self, spu_id: Optional[int] = None) -> float:
        """Average mechanical latency (seek+rotation+transfer) in ms."""
        return self._mean_ms(_SERVICE, spu_id)

    def mean_seek_ms(self, spu_id: Optional[int] = None) -> float:
        """Average seek component in milliseconds."""
        return self._mean_ms(_SEEK, spu_id)

    def total_sectors(self, spu_id: Optional[int] = None) -> int:
        return self._total(_SECTORS, spu_id)

    def count(self, spu_id: Optional[int] = None) -> int:
        return self._total(_COUNT, spu_id)
