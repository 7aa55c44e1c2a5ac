"""Unit and property tests for on-disk layout."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.fs import Extent, File, LayoutError, Volume
from repro.sim.units import KB, PAGE_SIZE, SECTOR_SIZE


@pytest.fixture
def volume():
    return Volume(total_sectors=100_000, rng=random.Random(7))


class TestExtent:
    def test_end(self):
        assert Extent(10, 5).end == 15

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            Extent(0, 0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Extent(-1, 5)


class TestContiguous:
    def test_single_extent(self, volume):
        file = volume.allocate_contiguous("f", 64 * KB)
        assert len(file.extents) == 1
        assert file.extents[0].nsectors == 128

    def test_metadata_sector_precedes_data(self, volume):
        file = volume.allocate_contiguous("f", 4 * KB)
        assert file.metadata_sector < file.extents[0].start

    def test_files_do_not_overlap(self, volume):
        a = volume.allocate_contiguous("a", 64 * KB)
        b = volume.allocate_contiguous("b", 64 * KB)
        assert b.extents[0].start >= a.extents[0].end

    def test_at_sector_pins_placement(self, volume):
        file = volume.allocate_contiguous("f", 4 * KB, at_sector=50_000)
        assert file.extents[0].start >= 50_000

    def test_at_sector_beyond_volume_rejected(self, volume):
        with pytest.raises(LayoutError):
            volume.allocate_contiguous("f", 4 * KB, at_sector=99_999)

    def test_volume_full(self):
        volume = Volume(total_sectors=10)
        with pytest.raises(LayoutError):
            volume.allocate_contiguous("f", 100 * KB)

    def test_duplicate_name_rejected(self, volume):
        volume.allocate_contiguous("f", KB)
        with pytest.raises(LayoutError):
            volume.allocate_contiguous("f", KB)

    def test_zero_size_rejected(self, volume):
        with pytest.raises(LayoutError):
            volume.allocate_contiguous("f", 0)


class TestFragmented:
    def test_splits_into_extents(self, volume):
        file = volume.allocate_fragmented("f", 64 * KB, extent_sectors=16)
        assert len(file.extents) == 8
        assert all(e.nsectors == 16 for e in file.extents[:-1])

    def test_extents_cover_size(self, volume):
        file = volume.allocate_fragmented("f", 50 * KB, extent_sectors=16)
        assert sum(e.nsectors for e in file.extents) == file.nsectors

    def test_deterministic_given_rng(self):
        v1 = Volume(1000, rng=random.Random(3))
        v2 = Volume(1000, rng=random.Random(3))
        f1 = v1.allocate_fragmented("f", 16 * KB)
        f2 = v2.allocate_fragmented("f", 16 * KB)
        assert [e.start for e in f1.extents] == [e.start for e in f2.extents]

    def test_bad_extent_size(self, volume):
        with pytest.raises(LayoutError):
            volume.allocate_fragmented("f", KB, extent_sectors=0)


class TestSectorRuns:
    def test_contiguous_single_run(self, volume):
        file = volume.allocate_contiguous("f", 64 * KB)
        runs = file.sector_runs(0, file.nsectors)
        assert runs == [(file.extents[0].start, 128)]

    def test_fragmented_runs_follow_extents(self, volume):
        file = volume.allocate_fragmented("f", 16 * KB, extent_sectors=16)
        runs = file.sector_runs(0, 32)
        assert [n for _s, n in runs] == [16, 16]
        assert [s for s, _n in runs] == [e.start for e in file.extents]

    def test_mid_file_offset(self, volume):
        file = volume.allocate_fragmented("f", 16 * KB, extent_sectors=16)
        runs = file.sector_runs(8, 16)
        assert runs[0] == (file.extents[0].start + 8, 8)
        assert runs[1] == (file.extents[1].start, 8)

    def test_out_of_range_rejected(self, volume):
        file = volume.allocate_contiguous("f", 4 * KB)
        with pytest.raises(ValueError):
            file.sector_runs(0, file.nsectors + 1)

    def test_block_sector(self, volume):
        file = volume.allocate_contiguous("f", 64 * KB)
        assert file.block_sector(2) == file.extents[0].start + 16

    @given(
        size_kb=st.integers(1, 256),
        extent_sectors=st.integers(1, 64),
        start=st.integers(0, 200),
        count=st.integers(1, 200),
    )
    def test_property_runs_cover_exactly_the_requested_range(
        self, size_kb, extent_sectors, start, count
    ):
        volume = Volume(10_000_000, rng=random.Random(size_kb))
        file = volume.allocate_fragmented("f", size_kb * KB, extent_sectors)
        if start + count > file.nsectors:
            return
        runs = file.sector_runs(start, count)
        assert sum(n for _s, n in runs) == count
        assert all(n > 0 for _s, n in runs)


def outcome(fn, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, LayoutError) as exc:
        return type(exc), str(exc)


class TestBlockSectorAgainstSectorRuns:
    """``block_sector`` bisects cumulative extent ends; the extent walk
    in ``sector_runs`` is the reference it must agree with."""

    @given(
        extents=st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(1, 40)),
            min_size=0, max_size=30,
        ),
        slack=st.integers(-PAGE_SIZE, PAGE_SIZE),
        blocks=st.lists(st.integers(-2, 80), min_size=1, max_size=20),
    )
    def test_same_sector_or_same_error(self, extents, slack, blocks):
        # ``slack`` sizes the file off its extents' total, so some files
        # have extents covering too few sectors (LayoutError) and some
        # blocks fall outside the file (ValueError).
        covered = sum(n for _s, n in extents) * SECTOR_SIZE
        size = max(1, covered + slack)
        file = File("f", size, [Extent(s, n) for s, n in extents], 0)
        per_block = PAGE_SIZE // SECTOR_SIZE
        for block in blocks:
            want = outcome(
                lambda b: file.sector_runs(b * per_block, 1)[0][0], block
            )
            assert outcome(file.block_sector, block) == want

    def test_every_block_of_a_fragmented_file(self, volume):
        file = volume.allocate_fragmented("f", 700 * KB, extent_sectors=3)
        per_block = PAGE_SIZE // SECTOR_SIZE
        for block in range(file.nblocks):
            assert file.block_sector(block) == \
                file.sector_runs(block * per_block, 1)[0][0]


class TestVolumeLookup:
    def test_get(self, volume):
        file = volume.allocate_contiguous("f", KB)
        assert volume.get("f") is file

    def test_get_missing_raises(self, volume):
        with pytest.raises(LayoutError):
            volume.get("nope")

    def test_nblocks(self, volume):
        file = volume.allocate_contiguous("f", PAGE_SIZE * 3 + 1)
        assert file.nblocks == 4
