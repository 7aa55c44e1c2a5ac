"""Machine configuration.

A :class:`MachineConfig` describes the simulated hardware and the
resource-allocation scheme; the :class:`~repro.kernel.kernel.Kernel`
builds the whole system from it.  The defaults mirror the paper's
SimOS CHALLENGE configuration where it matters (the experiments set
their own CPU/memory/disk sizes per Table 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.contracts import EqualShareContract, SharingContract
from repro.core.schemes import DiskSchedPolicy, SchemeConfig, smp_scheme
from repro.disk.model import DiskGeometry, fast_disk
from repro.kernel.overload import OverloadPolicy
from repro.net.schedulers import make_link_scheduler
from repro.sim.units import MB, PAGE_SIZE


@dataclass(frozen=True)
class DiskSpec:
    """One disk: geometry, scheduling policy, and swap reservation."""

    geometry: DiskGeometry = field(default_factory=fast_disk)
    #: Override of the scheme's disk policy for this disk (None = use
    #: the scheme's).
    policy: Optional[DiskSchedPolicy] = None
    #: Sectors at the top of the disk reserved as swap space.
    swap_sectors: int = 16384

    def __post_init__(self) -> None:
        if self.swap_sectors < 0:
            raise ValueError("swap_sectors must be >= 0")
        if self.swap_sectors >= self.geometry.total_sectors:
            raise ValueError("swap reservation covers the whole disk")


@dataclass(frozen=True)
class NicSpec:
    """One network interface: line rate and scheduling policy.

    ``policy`` is a link-scheduler name: ``"fifo"`` (no isolation),
    ``"fair"`` (per-SPU fair share), or ``"threshold"`` (FIFO until an
    SPU exceeds the mean usage by ``threshold`` decayed bytes/share).
    """

    bandwidth_mbps: float = 100.0
    policy: str = "fair"
    threshold: float = 16384.0

    def __post_init__(self) -> None:
        # Written as ``not`` a comparison so NaN, which fails every
        # comparison, is rejected too; an infinite rate sends in zero
        # time.
        if not 0 < self.bandwidth_mbps < math.inf:
            raise ValueError(
                f"NIC bandwidth_mbps must be positive and finite,"
                f" got {self.bandwidth_mbps}"
            )
        # Checked under every policy, not only the one that reads it.
        if not self.threshold >= 0:
            raise ValueError(f"NIC threshold must be >= 0, got {self.threshold}")
        make_link_scheduler(self.policy, self.threshold)  # unknown policy raises


@dataclass(frozen=True)
class MachineConfig:
    """The simulated machine plus the allocation scheme to run."""

    ncpus: int = 8
    memory_mb: int = 64
    disks: List[DiskSpec] = field(default_factory=lambda: [DiskSpec()])
    #: Network interfaces; empty by default (most experiments are
    #: CPU/memory/disk-bound, like the paper's).
    nics: List[NicSpec] = field(default_factory=list)
    scheme: SchemeConfig = field(default_factory=smp_scheme)
    contract: SharingContract = field(default_factory=EqualShareContract)
    #: Per-SPU admission limits against abusive workloads (fork bombs,
    #: I/O floods, thrashers); see :mod:`repro.kernel.overload`.
    overload: OverloadPolicy = field(default_factory=OverloadPolicy)
    seed: int = 0
    #: Pages taken by kernel code/data at boot; defaults (when None) to
    #: 1/16th of memory.
    kernel_pages: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ncpus <= 0:
            raise ValueError("machine needs at least one CPU")
        if self.memory_mb <= 0:
            raise ValueError("machine needs memory")
        if not self.disks:
            raise ValueError("machine needs at least one disk")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.kernel_pages is not None:
            if self.kernel_pages < 0:
                raise ValueError(
                    f"kernel_pages must be >= 0, got {self.kernel_pages}"
                )
            if self.kernel_pages >= self.total_pages:
                raise ValueError(
                    f"kernel_pages ({self.kernel_pages}) must leave user"
                    f" pages out of {self.total_pages}"
                )

    @property
    def total_pages(self) -> int:
        return self.memory_mb * MB // PAGE_SIZE

    @property
    def boot_kernel_pages(self) -> int:
        if self.kernel_pages is not None:
            return self.kernel_pages
        return self.total_pages // 16
