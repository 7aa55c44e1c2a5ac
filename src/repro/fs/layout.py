"""On-disk file layout.

A :class:`Volume` places files on a disk as one or more extents
(contiguous sector runs).  The two layouts the paper's workloads need:

* **contiguous** — "the sectors of a single file are often laid out
  contiguously on the disk"; the copy workloads read/write such files.
* **fragmented** — pmake touches many small files scattered across the
  disk, plus "many repeated writes of meta-data to a single sector".
  Fragmented files are split into extents placed at spread-out
  positions, and every file has a metadata sector.
"""

from __future__ import annotations

import itertools
import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.units import PAGE_SIZE, SECTOR_SIZE, sectors


class LayoutError(RuntimeError):
    """Raised when a volume cannot satisfy an allocation."""


@dataclass(frozen=True)
class Extent:
    """A contiguous run of sectors."""

    start: int
    nsectors: int

    def __post_init__(self) -> None:
        if self.nsectors <= 0:
            raise ValueError(f"extent must cover >= 1 sector, got {self.nsectors}")
        if self.start < 0:
            raise ValueError(f"negative extent start {self.start}")

    @property
    def end(self) -> int:
        """One past the last sector."""
        return self.start + self.nsectors


_file_ids = itertools.count(1)


@dataclass
class File:
    """A file: a name, a size, extents, and a metadata sector."""

    name: str
    size_bytes: int
    extents: List[Extent]
    metadata_sector: int
    file_id: int = field(default_factory=lambda: next(_file_ids))
    #: Logical sector one past the end of each extent (cumulative
    #: sizes), so a lookup bisects instead of walking the extents.
    #: Fragmented files hold thousands of extents; an ``array('q')``
    #: keeps them 8 bytes each.
    _extent_ends: array = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._extent_ends = array(
            "q", itertools.accumulate(e.nsectors for e in self.extents)
        )

    @property
    def nsectors(self) -> int:
        return sectors(self.size_bytes)

    @property
    def nblocks(self) -> int:
        """Number of whole cache blocks (pages) covering the file."""
        return -(-self.size_bytes // PAGE_SIZE)

    def sector_runs(self, start_sector: int, count: int) -> List[Tuple[int, int]]:
        """Map a logical sector range to physical ``(sector, count)`` runs."""
        if start_sector < 0 or count <= 0 or start_sector + count > self.nsectors:
            raise ValueError(
                f"range [{start_sector}, +{count}) outside file of {self.nsectors} sectors"
            )
        runs: List[Tuple[int, int]] = []
        logical = 0
        remaining = count
        for extent in self.extents:
            if remaining == 0:
                break
            extent_end = logical + extent.nsectors
            if start_sector < extent_end and logical < start_sector + count:
                offset_in_extent = max(0, start_sector - logical)
                take = min(extent.nsectors - offset_in_extent, remaining)
                runs.append((extent.start + offset_in_extent, take))
                remaining -= take
            logical = extent_end
        if remaining:
            raise LayoutError(f"file {self.name!r} extents cover too few sectors")
        return runs

    def block_sector(self, block: int) -> int:
        """Physical start sector of logical cache block ``block``.

        The same answer (and errors) as ``sector_runs(first, 1)``, found
        by bisecting the cumulative extent ends.
        """
        logical = block * (PAGE_SIZE // SECTOR_SIZE)
        if logical < 0 or logical >= self.nsectors:
            raise ValueError(
                f"range [{logical}, +1) outside file of {self.nsectors} sectors"
            )
        ends = self._extent_ends
        i = bisect_right(ends, logical)
        if i == len(ends):
            raise LayoutError(f"file {self.name!r} extents cover too few sectors")
        extent = self.extents[i]
        return extent.start + logical - (ends[i] - extent.nsectors)


class Volume:
    """Allocates file extents on one disk.

    Contiguous allocation proceeds from a bump pointer; fragmented
    allocation scatters fixed-size extents pseudo-randomly (from a
    caller-supplied RNG so runs are deterministic) across the volume.
    """

    __slots__ = ("total_sectors", "_rng", "_next_free", "files")

    def __init__(self, total_sectors: int, rng: Optional[random.Random] = None):
        if total_sectors <= 0:
            raise LayoutError("volume must have at least one sector")
        self.total_sectors = total_sectors
        self._rng = rng if rng is not None else random.Random(0)
        self._next_free = 0
        self.files: Dict[str, File] = {}

    def _take(self, nsectors: int) -> int:
        if self._next_free + nsectors > self.total_sectors:
            raise LayoutError(
                f"volume full: need {nsectors} sectors at {self._next_free}"
                f" of {self.total_sectors}"
            )
        start = self._next_free
        self._next_free += nsectors
        return start

    def allocate_contiguous(
        self, name: str, size_bytes: int, at_sector: Optional[int] = None
    ) -> File:
        """Lay the file out as one extent plus a metadata sector.

        ``at_sector`` pins the extent to a specific disk position (the
        bump pointer moves past it), letting experiments control how
        far apart two files sit — seek distance is part of what the
        disk experiments measure.
        """
        self._check_new(name, size_bytes)
        nsec = sectors(size_bytes)
        if at_sector is not None:
            if not 0 <= at_sector <= self.total_sectors - nsec - 1:
                raise LayoutError(
                    f"cannot place {nsec} sectors at {at_sector}"
                    f" on a {self.total_sectors}-sector volume"
                )
            self._next_free = max(self._next_free, at_sector)
        meta = self._take(1)
        start = self._take(nsec)
        file = File(name, size_bytes, [Extent(start, nsec)], metadata_sector=meta)
        self.files[name] = file
        return file

    def allocate_fragmented(
        self, name: str, size_bytes: int, extent_sectors: int = 16
    ) -> File:
        """Lay the file out as small extents scattered over the volume.

        Extents are placed at random positions drawn over the whole
        volume, modelling an aged filesystem; they may overlap other
        files' sectors, which is harmless since the simulator never
        interprets the bytes.
        """
        self._check_new(name, size_bytes)
        if extent_sectors <= 0:
            raise LayoutError("extent_sectors must be positive")
        meta = self._rng.randrange(self.total_sectors)
        nsec = sectors(size_bytes)
        extents: List[Extent] = []
        remaining = nsec
        while remaining > 0:
            take = min(extent_sectors, remaining)
            start = self._rng.randrange(max(1, self.total_sectors - take))
            extents.append(Extent(start, take))
            remaining -= take
        file = File(name, size_bytes, extents, metadata_sector=meta)
        self.files[name] = file
        return file

    def _check_new(self, name: str, size_bytes: int) -> None:
        if size_bytes <= 0:
            raise LayoutError(f"file size must be positive, got {size_bytes}")
        if name in self.files:
            raise LayoutError(f"file {name!r} already exists")

    def get(self, name: str) -> File:
        try:
            return self.files[name]
        except KeyError:
            raise LayoutError(f"no file named {name!r}") from None
