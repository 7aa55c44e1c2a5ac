"""The antagonist library: one adversary per kernel resource path.

========================  =====================================================
kind                      attack
========================  =====================================================
``fork_bomb``             generational :class:`Spawn` tree far past the
                          per-SPU process limit; denied spawns (-1) are
                          absorbed and the survivors burn CPU
``memory_bomb``           working set several times the SPU's fair share,
                          touched continuously — thrashes the pager and,
                          under global replacement, steals victim pages
``disk_flooder``          parallel streaming read/write passes over files
                          much larger than the buffer cache share
``cache_polluter``        scattered reads across a large fragmented file,
                          evicting everyone's warm buffer-cache blocks
``lock_hogger``           takes a shared kernel lock exclusively and holds
                          it for long compute bursts, back to back
``metadata_storm``        synchronous one-sector metadata writes in a tight
                          loop (the paper's "many repeated writes of
                          meta-data to a single sector")
========================  =====================================================

:func:`launch` instantiates one antagonist inside an SPU.  All sizing
flows from the machine (page counts, cache share) and a caller-supplied
RNG, so runs are deterministic; ``scale`` multiplies process counts and
footprints for milder or nastier mixes.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

from repro.kernel.syscalls import (
    Acquire,
    Behavior,
    Compute,
    ReadFile,
    Release,
    SetWorkingSet,
    Sleep,
    Spawn,
    WaitChildren,
    WriteFile,
    WriteMetadata,
)
from repro.sim.units import KB, MB, MSEC, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.spu import SPU
    from repro.fs.layout import File
    from repro.kernel.kernel import Kernel
    from repro.kernel.locks import KernelLock
    from repro.kernel.process import Process

#: Every antagonist kind :func:`launch` understands.
ANTAGONIST_KINDS = (
    "fork_bomb",
    "memory_bomb",
    "disk_flooder",
    "cache_polluter",
    "lock_hogger",
    "metadata_storm",
)


class AntagonistError(ValueError):
    """Raised for unknown kinds or unusable launch arguments."""


# --- behaviours --------------------------------------------------------------


def _fork_bomb(depth: int, fanout: int, work_us: int) -> Behavior:
    """A generational spawn tree; every node computes, leaves included.

    ``Spawn`` yields -1 when the kernel denies the fork (per-SPU process
    limit) — a real fork bomb keeps hammering regardless, so denials are
    simply absorbed and the node moves on.
    """

    def node(gen: int) -> Behavior:
        spawned = 0
        if gen < depth:
            for _ in range(fanout):
                pid = yield Spawn(node(gen + 1), name=f"bomb-g{gen + 1}")
                if pid != -1:
                    spawned += 1
        yield Compute(work_us)
        if spawned:
            yield WaitChildren()

    return node(0)


def _memory_bomb(pages: int, rounds: int, burst_us: int) -> Behavior:
    """Declare a huge working set and keep touching it.

    Every compute burst re-touches pages at a high rate; whenever the
    resident set is short of the declared one, that means page faults —
    and under global replacement, stolen victim pages.
    """

    def behavior() -> Behavior:
        burst = Compute(burst_us)
        yield SetWorkingSet(pages=pages, touches_per_ms=8.0)
        for _ in range(rounds):
            yield burst
        yield SetWorkingSet(pages=0)

    return behavior()


def _stream(file: "File", passes: int, chunk: int) -> Behavior:
    """Sequentially read (even passes) or write (odd passes) a file."""

    def behavior() -> Behavior:
        for i in range(passes):
            offset = 0
            while offset < file.size_bytes:
                nbytes = min(chunk, file.size_bytes - offset)
                if i % 2:
                    yield WriteFile(file, offset, nbytes)
                else:
                    yield ReadFile(file, offset, nbytes)
                offset += nbytes

    return behavior()


def _polluter(file: "File", rng: random.Random, touches: int, chunk: int) -> Behavior:
    """Read scattered ranges of a big fragmented file.

    Offsets are drawn up front from the caller's RNG so the behaviour
    itself is a fixed schedule — determinism does not depend on when
    the generator happens to be resumed.
    """
    span = max(1, file.size_bytes - chunk)
    offsets = [rng.randrange(0, span) for _ in range(touches)]

    def behavior() -> Behavior:
        for offset in offsets:
            yield ReadFile(file, offset, chunk)

    return behavior()


def _lock_hogger(lock: "KernelLock", rounds: int, hold_us: int, gap_us: int) -> Behavior:
    """Exclusively hold a shared kernel lock for long bursts."""

    def behavior() -> Behavior:
        acquire = Acquire(lock)
        hold = Compute(hold_us)
        release = Release(lock)
        gap = Sleep(gap_us)
        for _ in range(rounds):
            yield acquire
            yield hold
            yield release
            if gap_us:
                yield gap

    return behavior()


def _metadata_storm(files: List["File"], writes: int) -> Behavior:
    """Synchronous metadata writes, round-robin over a few files."""

    def behavior() -> Behavior:
        for i in range(writes):
            yield WriteMetadata(files[i % len(files)])

    return behavior()


# --- the launcher ------------------------------------------------------------


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _fresh_name(kernel: "Kernel", kind: str) -> str:
    """A per-kernel unique file name (deterministic: a plain counter)."""
    seq = getattr(kernel, "_antagonist_seq", 0)
    kernel._antagonist_seq = seq + 1  # type: ignore[attr-defined]
    return f"antagonist/{kind}.{seq}"


def launch(
    kernel: "Kernel",
    spu: "SPU",
    kind: str,
    rng: random.Random,
    mount: int = 0,
    shared_lock: Optional["KernelLock"] = None,
    scale: float = 1.0,
) -> List["Process"]:
    """Start one antagonist of ``kind`` inside ``spu``; returns its roots.

    ``shared_lock`` is required by ``lock_hogger`` (the whole point is
    contending on a lock the victim also takes).  ``scale`` multiplies
    process counts and footprints.
    """
    if kind not in ANTAGONIST_KINDS:
        raise AntagonistError(
            f"unknown antagonist {kind!r}; expected one of {ANTAGONIST_KINDS}"
        )
    if scale <= 0:
        raise AntagonistError(f"scale must be positive, got {scale}")

    procs: List["Process"] = []

    def start(behavior: Behavior, label: str) -> None:
        procs.append(kernel.spawn(behavior, spu, name=label))

    if kind == "fork_bomb":
        # depth 4 / fanout 3 is 121 processes per root — two roots
        # overrun the default 128-process SPU limit severalfold.
        for i in range(_scaled(2, scale)):
            start(_fork_bomb(depth=4, fanout=3, work_us=120 * MSEC), f"fork_bomb.{i}")

    elif kind == "memory_bomb":
        pages = _scaled(int(kernel.memory.total_pages * 0.6), scale)
        for i in range(2):
            start(_memory_bomb(pages=pages, rounds=400, burst_us=5 * MSEC),
                  f"memory_bomb.{i}")

    elif kind == "disk_flooder":
        for i in range(_scaled(4, scale)):
            file = kernel.fs.create(
                mount, _fresh_name(kernel, kind), 8 * MB
            )
            start(_stream(file, passes=6, chunk=256 * KB), f"disk_flooder.{i}")

    elif kind == "cache_polluter":
        file = kernel.fs.create(
            mount, _fresh_name(kernel, kind),
            min(16 * MB, kernel.memory.total_pages * PAGE_SIZE),
            fragmented=True,
        )
        for i in range(_scaled(2, scale)):
            start(_polluter(file, rng, touches=_scaled(400, scale), chunk=64 * KB),
                  f"cache_polluter.{i}")

    elif kind == "lock_hogger":
        if shared_lock is None:
            raise AntagonistError("lock_hogger needs the shared_lock it will hog")
        for i in range(_scaled(2, scale)):
            start(_lock_hogger(shared_lock, rounds=_scaled(400, scale),
                               hold_us=3 * MSEC, gap_us=0),
                  f"lock_hogger.{i}")

    elif kind == "metadata_storm":
        files = [
            kernel.fs.create(mount, _fresh_name(kernel, kind), 64 * KB,
                             fragmented=True)
            for _ in range(4)
        ]
        for i in range(_scaled(2, scale)):
            start(_metadata_storm(files, writes=_scaled(300, scale)),
                  f"metadata_storm.{i}")

    return procs
