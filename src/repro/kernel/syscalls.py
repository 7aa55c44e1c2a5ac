"""The operations a simulated process can yield to the kernel.

Process behaviour is written as a Python generator that yields these
request objects; the kernel interprets each one, blocks the process
while it is serviced, and resumes the generator with the result (if
any).  Example::

    def compile_task(fs, src, obj):
        yield SetWorkingSet(pages=512)
        yield ReadFile(src, 0, src.size_bytes)
        yield Compute(msecs(800))
        yield WriteFile(obj, 0, obj.size_bytes)
        yield WriteMetadata(obj)

The kernel dispatches on an op's exact class (``type(op) is Compute``,
not ``isinstance``), so an instance of a subclass of one of these ops
is an unknown op and raises :class:`~repro.kernel.kernel.KernelError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.fs.layout import File
    from repro.kernel.locks import Barrier, KernelLock

#: A process behaviour: yields syscall ops, receives their results.
Behavior = Generator[object, object, None]


@dataclass(frozen=True)
class Compute:
    """Run on a CPU for ``duration_us`` of CPU time.

    Wall-clock time can be longer: the process competes for CPUs and
    may page-fault along the way if its working set is not resident.
    """

    duration_us: int

    def __post_init__(self) -> None:
        if self.duration_us <= 0:
            raise ValueError(f"compute duration must be positive, got {self.duration_us}")


@dataclass(frozen=True)
class SetWorkingSet:
    """Declare the process's anonymous working set.

    Growing it causes demand faults as the new pages are touched;
    shrinking it releases the excess pages immediately.
    """

    pages: int
    touches_per_ms: float = 4.0
    fault_cluster_pages: int = 8

    def __post_init__(self) -> None:
        if self.pages < 0:
            raise ValueError(f"working set must be >= 0, got {self.pages}")


@dataclass(frozen=True)
class ReadFile:
    """Read a byte range through the buffer cache (blocks on misses)."""

    file: "File"
    offset: int
    nbytes: int


@dataclass(frozen=True)
class WriteFile:
    """Delayed write (blocks only under memory pressure)."""

    file: "File"
    offset: int
    nbytes: int


@dataclass(frozen=True)
class WriteMetadata:
    """Synchronous one-sector metadata write (blocks until on disk)."""

    file: "File"


@dataclass(frozen=True)
class SendNetwork:
    """Transmit ``nbytes`` on NIC ``nic``; blocks until the last
    fragment leaves the wire."""

    nbytes: int
    nic: int = 0

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"message must carry >= 1 byte, got {self.nbytes}")
        # A negative index would silently pick a NIC from the end.
        if self.nic < 0:
            raise ValueError(f"nic must be >= 0, got {self.nic}")


@dataclass(frozen=True)
class Sleep:
    """Block for a fixed simulated duration (think: timers, think time)."""

    duration_us: int

    def __post_init__(self) -> None:
        if self.duration_us < 0:
            raise ValueError(f"sleep must be >= 0, got {self.duration_us}")


@dataclass(frozen=True)
class Checkpoint:
    """Record a timestamped marker on the process (no cost, no block).

    Markers land in ``process.checkpoints``, a
    :class:`~repro.kernel.process.CheckpointLog` that iterates as
    ``(label, time)`` pairs and keeps each marker in about 16 bytes;
    workloads use them to expose per-iteration latency distributions
    (e.g. every interactive burst) without any external instrumentation.
    """

    label: str = ""


@dataclass(frozen=True)
class Spawn:
    """Create a child process in the same SPU; yields the child's pid."""

    behavior: Behavior
    #: Optional label for metrics/tracing.
    name: str = ""


@dataclass(frozen=True)
class WaitChildren:
    """Block until every child spawned so far has exited."""


@dataclass(frozen=True)
class BarrierWait:
    """Wait until all parties have arrived at the barrier.

    ``spin=False`` blocks (yields the CPU).  ``spin=True`` busy-waits,
    burning CPU until the barrier trips — how SPLASH-2-era parallel
    applications actually behaved, and the reason gang scheduling
    matters: a spinning member wastes its processor whenever the gang
    is dispatched piecemeal.
    """

    barrier: "Barrier"
    spin: bool = False


@dataclass(frozen=True)
class Acquire:
    """Acquire a kernel lock; ``shared=True`` requests read mode."""

    lock: "KernelLock"
    shared: bool = False


@dataclass(frozen=True)
class Release:
    """Release a kernel lock previously acquired."""

    lock: "KernelLock"
