"""A test-side record of every request a drive completes.

``DiskStats`` keeps per-SPU totals, not the requests themselves.  A
test that needs each finished request (its op, sector or timing)
installs a recorder on the drive before the run::

    requests = record_requests(drive)
    engine.run()
    writes = [r for r in requests if r.op is DiskOp.WRITE]
"""

from typing import List

from repro.disk import DiskRequest, DiskStats


class RecordingStats(DiskStats):
    """``DiskStats`` whose ``record`` also keeps the request."""

    def __init__(self) -> None:
        super().__init__()
        self.requests: List[DiskRequest] = []

    def record(self, request: DiskRequest) -> None:
        self.requests.append(request)
        super().record(request)


def record_requests(drive) -> List[DiskRequest]:
    """Keep every request ``drive`` records from now on, in order.

    Returns the live list.  The drive must not have recorded anything
    yet: its totals are replaced, not carried over.
    """
    if drive.stats.count() or drive.stats.transient_errors:
        raise ValueError("install the recorder before the drive runs")
    drive.stats = RecordingStats()
    return drive.stats.requests
