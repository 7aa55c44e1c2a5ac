"""The file buffer cache.

Cached blocks occupy physical pages, so every insertion goes through a
:class:`PageProvider` — in the full kernel that is the memory manager,
which enforces per-SPU page caps ("SPU memory usage also includes pages
used indirectly in the kernel on behalf of an SPU, such as the file
buffer cache", Section 3.2).  A block touched by a second SPU is
recharged to the ``shared`` SPU (Section 2.2 / 3.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

from repro.core.spu import SHARED_SPU_ID


class PageProvider(Protocol):
    """Where the cache gets its pages; implemented by the memory manager."""

    def try_allocate(self, spu_id: int) -> bool:
        """Try to charge one page to ``spu_id``; False if over cap/full."""
        ...

    def free(self, spu_id: int) -> None:
        """Return one page charged to ``spu_id``."""
        ...

    def transfer(self, from_spu: int, to_spu: int) -> bool:
        """Move one page's charge between SPUs (shared-page detection)."""
        ...


class UnlimitedPageProvider:
    """A provider with a fixed global capacity and no per-SPU caps.

    Lets the filesystem run standalone (disk-only experiments, unit
    tests) without the memory subsystem.
    """

    __slots__ = ("capacity_pages", "used", "by_spu")

    def __init__(self, capacity_pages: int):
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_pages = capacity_pages
        self.used = 0
        self.by_spu: Dict[int, int] = {}

    def try_allocate(self, spu_id: int) -> bool:
        if self.used >= self.capacity_pages:
            return False
        # Tie-break audit: +1/-1 on a counter commutes across
        # same-timestamp handlers, and the sanitizer's page-conservation
        # law re-checks the total after every event.
        self.used += 1  # simlint: disable=SL601
        self.by_spu[spu_id] = self.by_spu.get(spu_id, 0) + 1
        return True

    def free(self, spu_id: int) -> None:
        if self.by_spu.get(spu_id, 0) <= 0:
            raise ValueError(f"SPU {spu_id} holds no pages")
        # Tie-break audit: see try_allocate.
        self.used -= 1  # simlint: disable=SL601
        self.by_spu[spu_id] -= 1

    def transfer(self, from_spu: int, to_spu: int) -> bool:
        if self.by_spu.get(from_spu, 0) <= 0:
            return False
        self.by_spu[from_spu] -= 1
        self.by_spu[to_spu] = self.by_spu.get(to_spu, 0) + 1
        return True


BlockKey = Tuple[int, int]  # (file_id, logical block number)


class CacheBlock:
    """One page-sized cached file block."""

    __slots__ = ("file_id", "block", "spu_charged", "dirty", "dirty_since",
                 "pinned", "epoch")

    def __init__(
        self,
        file_id: int,
        block: int,
        spu_charged: int,
        dirty: bool = False,
        dirty_since: int = -1,
        pinned: bool = False,
        epoch: int = 0,
    ):
        self.file_id = file_id
        self.block = block
        self.spu_charged = spu_charged
        self.dirty = dirty
        #: Dirtying time, for writeback ordering.
        self.dirty_since = dirty_since
        #: Pinned while an I/O is in flight on the block.
        self.pinned = pinned
        #: Bumped on every write so an in-flight flush can tell whether
        #: the block was re-dirtied while its write was on the wire.
        self.epoch = epoch

    @property
    def key(self) -> BlockKey:
        return (self.file_id, self.block)


# One BufferCache per kernel; the per-block hot state is CacheBlock
# (a slotted class), not the cache object itself.
class BufferCache:  # simlint: disable=SL401
    """Page-granularity file cache with per-SPU charging and LRU eviction.

    Dict insertion order is the LRU order: ``blocks`` and each SPU's
    dict in ``_by_spu`` hold the least recently touched block first,
    and a hit moves its block to the end of both.  Dirty and pinned
    blocks keep their place; eviction walks past them to the first
    block that is neither.
    """

    def __init__(self, provider: PageProvider):
        self.provider = provider
        self.blocks: Dict[BlockKey, CacheBlock] = {}
        #: ``blocks`` split by charged SPU, each in ``blocks`` order.
        self._by_spu: Dict[int, Dict[BlockKey, CacheBlock]] = {}
        #: The dirty blocks, in no particular order.
        self._dirty: Dict[BlockKey, CacheBlock] = {}
        #: Counters for hit-ratio reporting.
        self.hits = 0
        self.misses = 0

    # --- lookup -----------------------------------------------------------

    def lookup(self, key: BlockKey, spu_id: int) -> Optional[CacheBlock]:
        """Find a block; makes it most recent and updates shared charging.

        On access by an SPU other than the one charged, the block is
        recharged to the ``shared`` SPU (first touch marks the page with
        the accessor's SPU; a second SPU's touch makes it shared).
        """
        block = self.blocks.pop(key, None)
        if block is None:
            self.misses += 1
            return None
        self.hits += 1
        self.blocks[key] = block
        charged = block.spu_charged
        owned = self._by_spu[charged]
        del owned[key]
        if charged not in (spu_id, SHARED_SPU_ID):
            if self.provider.transfer(charged, SHARED_SPU_ID):
                block.spu_charged = SHARED_SPU_ID
                owned = self._by_spu.setdefault(SHARED_SPU_ID, {})
        owned[key] = block
        return block

    def contains(self, key: BlockKey) -> bool:
        return key in self.blocks

    # --- insertion & eviction ---------------------------------------------------

    def insert(self, key: BlockKey, spu_id: int, dirty: bool, now: int) -> Optional[CacheBlock]:
        """Insert a block charged to ``spu_id``.

        Tries, in order: plain allocation; evicting a clean block of the
        same SPU; evicting any clean block.  Returns ``None`` when no
        page could be obtained (all of the SPU's cache is dirty and the
        machine is out of pages) — the caller then streams the data or
        blocks on writeback.
        """
        if key in self.blocks:
            raise ValueError(f"block {key} already cached")
        if not self.provider.try_allocate(spu_id):
            if not (self._evict_clean(spu_id) and self.provider.try_allocate(spu_id)):
                if not (self._evict_clean(None) and self.provider.try_allocate(spu_id)):
                    return None
        block = CacheBlock(key[0], key[1], spu_id, dirty, now if dirty else -1)
        self.blocks[key] = block
        self._by_spu.setdefault(spu_id, {})[key] = block
        if dirty:
            self._dirty[key] = block
        return block

    def evict_clean(self, spu_id: Optional[int] = None) -> bool:
        """Evict one clean block (optionally one SPU's); public entry
        point for the kernel's page-stealing path."""
        return self._evict_clean(spu_id)

    def _evict_clean(self, spu_id: Optional[int]) -> bool:
        """Evict the LRU clean, unpinned block (optionally one SPU's)."""
        order = self.blocks if spu_id is None else self._by_spu.get(spu_id, {})
        for key, block in order.items():
            if not block.dirty and not block.pinned:
                self.remove(key)
                return True
        return False

    def remove(self, key: BlockKey) -> None:
        """Drop a block and return its page to the provider."""
        block = self.blocks.pop(key)
        del self._by_spu[block.spu_charged][key]
        self._dirty.pop(key, None)
        self.provider.free(block.spu_charged)

    # --- dirty management ------------------------------------------------------

    def mark_dirty(self, key: BlockKey, now: int) -> None:
        block = self.blocks[key]
        block.epoch += 1
        if not block.dirty:
            block.dirty = True
            block.dirty_since = now
            self._dirty[key] = block

    def mark_clean(self, key: BlockKey) -> None:
        block = self.blocks[key]
        block.dirty = False
        block.dirty_since = -1
        self._dirty.pop(key, None)

    def dirty_blocks(self, spu_id: Optional[int] = None) -> List[CacheBlock]:
        """Dirty, unpinned blocks (optionally only one SPU's), oldest first."""
        out = [
            b
            for b in self._dirty.values()
            if not b.pinned and (spu_id is None or b.spu_charged == spu_id)
        ]
        out.sort(key=lambda b: (b.dirty_since, b.file_id, b.block))
        return out

    def dirty_count(self) -> int:
        return len(self._dirty)

    def size(self) -> int:
        return len(self.blocks)

    def index_drift(self) -> Optional[str]:
        """Where the indexes disagree with ``blocks``; ``None`` if nowhere.

        Each SPU's dict must be exactly its charged blocks in ``blocks``
        order, and ``_dirty`` exactly the dirty blocks.  SIMSAN's
        ``cache-index`` law calls this after events.
        """
        expected: Dict[int, List[BlockKey]] = {}
        for key, block in self.blocks.items():
            expected.setdefault(block.spu_charged, []).append(key)
        for spu_id in sorted(expected.keys() | self._by_spu.keys()):
            if list(self._by_spu.get(spu_id, ())) != expected.get(spu_id, []):
                return f"SPU {spu_id}'s LRU dict is not its blocks in LRU order"
        dirty = {key for key, block in self.blocks.items() if block.dirty}
        stray = sorted(dirty ^ self._dirty.keys())
        if stray:
            return f"dirty index disagrees with block {stray[0]}'s dirty flag"
        return None

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
