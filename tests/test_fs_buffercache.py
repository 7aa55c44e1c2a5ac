"""Unit tests for the buffer cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SHARED_SPU_ID
from repro.fs import BufferCache, CacheBlock, UnlimitedPageProvider


@pytest.fixture
def cache():
    return BufferCache(UnlimitedPageProvider(capacity_pages=4))


class TestProvider:
    def test_allocates_until_capacity(self):
        provider = UnlimitedPageProvider(2)
        assert provider.try_allocate(1)
        assert provider.try_allocate(2)
        assert not provider.try_allocate(1)

    def test_free_returns_capacity(self):
        provider = UnlimitedPageProvider(1)
        provider.try_allocate(1)
        provider.free(1)
        assert provider.try_allocate(2)

    def test_free_without_pages_raises(self):
        with pytest.raises(ValueError):
            UnlimitedPageProvider(1).free(1)

    def test_transfer_moves_charge(self):
        provider = UnlimitedPageProvider(2)
        provider.try_allocate(1)
        assert provider.transfer(1, 2)
        assert provider.by_spu[1] == 0
        assert provider.by_spu[2] == 1

    def test_transfer_without_source_fails(self):
        assert not UnlimitedPageProvider(2).transfer(1, 2)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            UnlimitedPageProvider(0)


class TestInsertLookup:
    def test_miss_then_hit(self, cache):
        assert cache.lookup((1, 0), spu_id=5) is None
        cache.insert((1, 0), spu_id=5, dirty=False, now=0)
        block = cache.lookup((1, 0), spu_id=5)
        assert block is not None
        assert block.spu_charged == 5

    def test_hit_ratio(self, cache):
        cache.lookup((1, 0), 5)
        cache.insert((1, 0), 5, dirty=False, now=0)
        cache.lookup((1, 0), 5)
        assert cache.hit_ratio == 0.5

    def test_double_insert_rejected(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        with pytest.raises(ValueError):
            cache.insert((1, 0), 5, dirty=False, now=0)

    def test_second_spu_access_marks_shared(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        block = cache.lookup((1, 0), spu_id=6)
        assert block.spu_charged == SHARED_SPU_ID
        assert cache.provider.by_spu[SHARED_SPU_ID] == 1
        assert cache.provider.by_spu[5] == 0

    def test_shared_block_stays_shared(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        cache.lookup((1, 0), 6)
        cache.lookup((1, 0), 5)
        assert cache.blocks[(1, 0)].spu_charged == SHARED_SPU_ID


class TestEviction:
    def test_lru_clean_evicted_when_full(self, cache):
        for block_no in range(4):
            cache.insert((1, block_no), 5, dirty=False, now=0)
        cache.lookup((1, 0), 5)  # freshen block 0; block 1 is now LRU
        assert cache.insert((1, 9), 5, dirty=False, now=1) is not None
        assert not cache.contains((1, 1))
        assert cache.contains((1, 0))

    def test_dirty_blocks_not_evicted(self, cache):
        for block_no in range(4):
            cache.insert((1, block_no), 5, dirty=True, now=0)
        assert cache.insert((1, 9), 5, dirty=False, now=1) is None

    def test_same_spu_evicted_first(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)  # SPU 5's old block
        for block_no in range(1, 4):
            cache.insert((1, block_no), 6, dirty=False, now=0)
        cache.insert((1, 9), 5, dirty=False, now=1)
        assert not cache.contains((1, 0))  # 5's block went, not 6's

    def test_pinned_blocks_survive(self, cache):
        for block_no in range(4):
            block = cache.insert((1, block_no), 5, dirty=False, now=0)
            block.pinned = True
        assert cache.insert((1, 9), 5, dirty=False, now=1) is None

    def test_public_evict_clean(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        assert cache.evict_clean(5)
        assert cache.size() == 0

    def test_evict_clean_wrong_spu_fails(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        assert not cache.evict_clean(6)

    def test_remove_frees_page(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        cache.remove((1, 0))
        assert cache.provider.used == 0


class TestDirtyTracking:
    def test_mark_dirty_and_clean(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        cache.mark_dirty((1, 0), now=10)
        assert cache.dirty_count() == 1
        assert cache.blocks[(1, 0)].dirty_since == 10
        cache.mark_clean((1, 0))
        assert cache.dirty_count() == 0

    def test_mark_dirty_bumps_epoch(self, cache):
        cache.insert((1, 0), 5, dirty=False, now=0)
        epoch0 = cache.blocks[(1, 0)].epoch
        cache.mark_dirty((1, 0), 1)
        cache.mark_dirty((1, 0), 2)
        assert cache.blocks[(1, 0)].epoch == epoch0 + 2

    def test_redirty_keeps_original_dirty_since(self, cache):
        cache.insert((1, 0), 5, dirty=True, now=3)
        cache.mark_dirty((1, 0), now=10)
        assert cache.blocks[(1, 0)].dirty_since == 3

    def test_dirty_blocks_oldest_first(self, cache):
        cache.insert((1, 1), 5, dirty=True, now=5)
        cache.insert((1, 0), 5, dirty=True, now=2)
        assert [b.block for b in cache.dirty_blocks()] == [0, 1]

    def test_dirty_blocks_filter_by_spu(self, cache):
        cache.insert((1, 0), 5, dirty=True, now=0)
        cache.insert((1, 1), 6, dirty=True, now=0)
        assert [b.spu_charged for b in cache.dirty_blocks(6)] == [6]

    def test_pinned_dirty_excluded(self, cache):
        block = cache.insert((1, 0), 5, dirty=True, now=0)
        block.pinned = True
        assert cache.dirty_blocks() == []


class LinearScanCache:
    """The eviction algorithm the indexed cache replaced, as a test oracle.

    Every touch takes a fresh stamp, and eviction scans every block for
    the clean, unpinned one with the smallest ``(stamp, file_id, block)``.
    """

    def __init__(self, provider):
        self.provider = provider
        self.blocks = {}
        self.stamps = {}
        self.clock = 0

    def _touch(self, key):
        self.clock += 1
        self.stamps[key] = self.clock

    def lookup(self, key, spu_id):
        block = self.blocks.get(key)
        if block is None:
            return None
        self._touch(key)
        if block.spu_charged not in (spu_id, SHARED_SPU_ID):
            if self.provider.transfer(block.spu_charged, SHARED_SPU_ID):
                block.spu_charged = SHARED_SPU_ID
        return block

    def insert(self, key, spu_id, dirty, now):
        if key in self.blocks:
            raise ValueError(f"block {key} already cached")
        if not self.provider.try_allocate(spu_id):
            if not (self.evict_clean(spu_id) and self.provider.try_allocate(spu_id)):
                if not (self.evict_clean(None) and self.provider.try_allocate(spu_id)):
                    return None
        block = CacheBlock(key[0], key[1], spu_id, dirty, now if dirty else -1)
        self.blocks[key] = block
        self._touch(key)
        return block

    def evict_clean(self, spu_id=None):
        candidates = [
            b for b in self.blocks.values()
            if not b.dirty and not b.pinned and spu_id in (None, b.spu_charged)
        ]
        if not candidates:
            return False
        victim = min(candidates, key=lambda b: (self.stamps[b.key], b.file_id, b.block))
        self.remove(victim.key)
        return True

    def remove(self, key):
        block = self.blocks.pop(key)
        del self.stamps[key]
        self.provider.free(block.spu_charged)

    def mark_dirty(self, key, now):
        block = self.blocks[key]
        block.epoch += 1
        if not block.dirty:
            block.dirty = True
            block.dirty_since = now

    def mark_clean(self, key):
        block = self.blocks[key]
        block.dirty = False
        block.dirty_since = -1

    def dirty_blocks(self, spu_id=None):
        out = [
            b for b in self.blocks.values()
            if b.dirty and not b.pinned and spu_id in (None, b.spu_charged)
        ]
        out.sort(key=lambda b: (b.dirty_since, b.file_id, b.block))
        return out

    def dirty_count(self):
        return sum(1 for b in self.blocks.values() if b.dirty)


USER_SPUS = (2, 3, 4)
PAGES = 6
KEYS = [(file_id, block) for file_id in (1, 2) for block in range(4)]

_keys = st.sampled_from(KEYS)
_spus = st.sampled_from(USER_SPUS)
_now = st.integers(0, 9)
_insert = st.tuples(st.just("insert"), _keys, _spus, st.booleans(), _now)
_lookup = st.tuples(st.just("lookup"), _keys, _spus)
# Inserts and lookups are weighted up so that the cache fills and evicts.
OPS = st.one_of(
    _insert, _insert, _insert, _lookup, _lookup,
    st.tuples(st.just("mark_dirty"), _keys, _now),
    st.tuples(st.just("mark_clean"), _keys),
    st.tuples(st.just("pin"), _keys, st.booleans()),
    st.tuples(st.just("evict_clean"), st.sampled_from(USER_SPUS + (SHARED_SPU_ID, None))),
    st.tuples(st.just("remove"), _keys),
)


def _apply(cache, op):
    """Run one op; returns what it returned, with blocks as their keys."""
    name, *args = op
    if name == "pin":
        key, pinned = args
        if key in cache.blocks:  # the writeback daemon pins in place
            cache.blocks[key].pinned = pinned
        return None
    try:
        result = getattr(cache, name)(*args)
    except (KeyError, ValueError) as exc:
        return type(exc).__name__
    return result.key if isinstance(result, CacheBlock) else result


def _assert_agree(cache, oracle):
    assert list(cache.blocks) == sorted(oracle.blocks, key=oracle.stamps.__getitem__)
    for key, block in cache.blocks.items():
        twin = oracle.blocks[key]
        assert (block.spu_charged, block.dirty, block.pinned, block.dirty_since) == (
            twin.spu_charged, twin.dirty, twin.pinned, twin.dirty_since), key
    for spu_id in (None, SHARED_SPU_ID) + USER_SPUS:
        assert [b.key for b in cache.dirty_blocks(spu_id)] == [
            b.key for b in oracle.dirty_blocks(spu_id)], spu_id
    assert cache.dirty_count() == oracle.dirty_count()
    assert cache.provider.by_spu == oracle.provider.by_spu
    assert cache.index_drift() is None


def run_differential(ops):
    """Apply ``ops`` to the indexed cache and the oracle in lock-step."""
    cache = BufferCache(UnlimitedPageProvider(PAGES))
    oracle = LinearScanCache(UnlimitedPageProvider(PAGES))
    for op in ops:
        assert _apply(cache, op) == _apply(oracle, op), op
        _assert_agree(cache, oracle)
    return cache


class TestAgainstLinearScan:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(OPS, min_size=20, max_size=80))
    def test_random_ops_match_the_linear_scan(self, ops):
        run_differential(ops)

    def test_block_cleaned_after_a_younger_insert_is_still_the_victim(self):
        # (1, 0) is written (dirty) before (1, 1) is read in, and its
        # flush completes after that read: it keeps its older place.
        cache = run_differential([
            ("insert", (1, 0), 2, True, 0),
            ("insert", (1, 1), 2, False, 1),
            ("mark_clean", (1, 0)),
            ("evict_clean", 2),
        ])
        assert list(cache.blocks) == [(1, 1)]

    def test_global_fallback_evicts_the_oldest_block_across_spus(self):
        fill = [("insert", (1, 0), 3, False, 0)] + [
            ("insert", (1, b), 2, False, 0) for b in range(1, PAGES)]
        # SPU 4 holds nothing, so its insert falls back to the global
        # LRU block, SPU 3's; then evict_clean(None) takes the next.
        cache = run_differential(fill + [
            ("insert", (2, 0), 4, False, 1),
            ("evict_clean", None),
        ])
        assert not cache.contains((1, 0))
        assert not cache.contains((1, 1))
        assert cache.contains((1, 2)) and cache.contains((2, 0))
