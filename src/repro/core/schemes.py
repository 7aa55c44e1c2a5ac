"""The resource-allocation schemes compared in the paper (Table 2).

Each scheme is a bundle of switches the kernel subsystems consult:

* **SMP** — stock IRIX 5.3 behaviour: unconstrained sharing, no
  isolation.  One global run queue, one global page pool, position-only
  (C-SCAN) disk scheduling.
* **Quo** — fixed quotas: good isolation, no sharing.  CPUs are
  hard-partitioned to their home SPUs, memory caps stay at the
  entitlement, disk bandwidth is split round-robin.
* **PIso** — performance isolation: isolation plus careful sharing of
  idle resources.

The disk experiments (Tables 3 and 4) additionally compare three disk
scheduling policies — ``Pos``, ``Iso``, ``PIso`` — which are captured by
:class:`DiskSchedPolicy` so they can be varied independently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.sim.units import MSEC


class DiskSchedPolicy(enum.Enum):
    """Disk request scheduling policies (Section 4.5)."""

    #: Head-position-only C-SCAN scheduling; stock IRIX ("Pos").
    POS = "pos"
    #: Blind fairness: ignore head position, serve SPUs by bandwidth
    #: share ("Iso").
    ISO = "iso"
    #: Performance isolation: head position, overridden by a fairness
    #: criterion when an SPU exceeds its share ("PIso").
    PISO = "piso"


@dataclass(frozen=True)
class IsolationParams:
    """Tunables of the performance-isolation implementation (Section 3).

    Defaults are the values the paper used.
    """

    #: Scheduler time slice (IRIX: 30 ms unless the process blocks).
    time_slice: int = 30 * MSEC
    #: Clock-tick interval; the maximum CPU-loan revocation latency.
    clock_tick: int = 10 * MSEC
    #: Fraction of total memory kept free to hide memory revocation
    #: cost (the Reserve Threshold; IRIX low-memory value).
    reserve_threshold: float = 0.08
    #: How often the memory-sharing daemon re-examines SPU page usage.
    memory_rebalance_period: int = 100 * MSEC
    #: Disk bandwidth counters are halved once per this period.
    disk_decay_period: int = 500 * MSEC
    #: An SPU fails the disk fairness criterion when its usage ratio
    #: exceeds the mean of active SPUs' ratios by this many decayed
    #: sectors-per-share.  0 degenerates to round-robin; very large
    #: values degenerate to position-only scheduling.
    bw_difference_threshold: float = 256.0
    #: CPU-loan revocation mode: ``"tick"`` waits for the next clock
    #: tick (max latency one tick, the paper's implementation);
    #: ``"ipi"`` sends an inter-processor interrupt immediately — the
    #: alternative the paper suggests "to provide response time
    #: performance isolation guarantees to interactive processes".
    revocation_mode: str = "tick"
    #: Cost of delivering an IPI and switching, when revocation_mode
    #: is "ipi".
    ipi_cost: int = 25
    #: Cache-affinity penalty: extra warm-up time on a CPU other than
    #: the one the process last ran on (the paper's "hidden costs to
    #: reallocating CPUs, such as cache pollution").  0 disables.
    migration_cost: int = 0
    #: After a loan is revoked, the CPU refuses new loans for this
    #: long, damping the frequent-reallocation pathology the paper
    #: warns about.  0 disables.
    loan_holddown: int = 0
    #: Run a background pageout daemon that keeps the free pool at the
    #: Reserve Threshold, taking reclamation off the fault path.
    proactive_pageout: bool = False
    #: How often the pageout daemon scans.
    pageout_period: int = 250 * MSEC

    def __post_init__(self) -> None:
        if self.revocation_mode not in ("tick", "ipi"):
            raise ValueError(
                f"revocation_mode must be 'tick' or 'ipi',"
                f" got {self.revocation_mode!r}"
            )
        # Every comparison with NaN is False, so NaN fails each check.
        checks = (
            ("time_slice", "> 0", self.time_slice > 0),
            ("clock_tick", "> 0", self.clock_tick > 0),
            ("memory_rebalance_period", "> 0", self.memory_rebalance_period > 0),
            ("disk_decay_period", "> 0", self.disk_decay_period > 0),
            ("pageout_period", "> 0", self.pageout_period > 0),
            ("reserve_threshold", "in [0, 1]", 0 <= self.reserve_threshold <= 1),
            ("bw_difference_threshold", ">= 0", self.bw_difference_threshold >= 0),
        )
        for name, rule, ok in checks:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if self.migration_cost < 0 or self.loan_holddown < 0 or self.ipi_cost < 0:
            raise ValueError("costs must be >= 0")


@dataclass(frozen=True)
class SchemeConfig:
    """One resource-allocation scheme as a set of subsystem switches."""

    name: str
    #: CPUs have home SPUs and schedule only from them by default.
    cpu_partitioned: bool
    #: Idle CPUs may run processes from foreign SPUs (loans).
    cpu_lending: bool
    #: Per-SPU memory caps are enforced at page allocation.
    mem_limits: bool
    #: Idle memory is periodically redistributed by raising caps.
    mem_sharing: bool
    #: Disk request scheduling policy.
    disk_policy: DiskSchedPolicy
    #: Implementation tunables.
    params: IsolationParams = field(default_factory=IsolationParams)
    #: Use SPU-level stride scheduling instead of partitioning (the
    #: related-work alternative [Wal95]; see :mod:`repro.cpu.stride`).
    cpu_stride: bool = False

    def with_disk_policy(self, policy: DiskSchedPolicy) -> "SchemeConfig":
        """A copy of this scheme with a different disk policy."""
        return replace(self, disk_policy=policy)


def smp_scheme(params: IsolationParams = IsolationParams()) -> SchemeConfig:
    """Stock SMP: unconstrained sharing, no isolation (Table 2, "SMP")."""
    return SchemeConfig(
        name="SMP",
        cpu_partitioned=False,
        cpu_lending=True,
        mem_limits=False,
        mem_sharing=False,
        disk_policy=DiskSchedPolicy.POS,
        params=params,
    )


def quota_scheme(params: IsolationParams = IsolationParams()) -> SchemeConfig:
    """Fixed quotas: good isolation, no sharing (Table 2, "Quo")."""
    return SchemeConfig(
        name="Quo",
        cpu_partitioned=True,
        cpu_lending=False,
        mem_limits=True,
        mem_sharing=False,
        disk_policy=DiskSchedPolicy.ISO,
        params=params,
    )


def piso_scheme(params: IsolationParams = IsolationParams()) -> SchemeConfig:
    """Performance isolation: isolation + idle sharing (Table 2, "PIso")."""
    return SchemeConfig(
        name="PIso",
        cpu_partitioned=True,
        cpu_lending=True,
        mem_limits=True,
        mem_sharing=True,
        disk_policy=DiskSchedPolicy.PISO,
        params=params,
    )


def stride_scheme(params: IsolationParams = IsolationParams()) -> SchemeConfig:
    """Proportional-share CPU via stride scheduling [Wal95].

    Memory and disk isolation work exactly as under PIso; only the CPU
    mechanism differs — no partition, no loans, shares enforced by
    pass ordering.  Used to compare the paper's approach against its
    main related-work alternative.
    """
    return SchemeConfig(
        name="Stride",
        cpu_partitioned=False,
        cpu_lending=True,
        mem_limits=True,
        mem_sharing=True,
        disk_policy=DiskSchedPolicy.PISO,
        params=params,
        cpu_stride=True,
    )


def scheme_by_name(name: str, params: IsolationParams = IsolationParams()) -> SchemeConfig:
    """Look up a scheme by its paper name (case-insensitive)."""
    factories = {
        "smp": smp_scheme,
        "quo": quota_scheme,
        "piso": piso_scheme,
        "stride": stride_scheme,
    }
    try:
        return factories[name.lower()](params)  # simlint: dynamic=factory-table
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of {sorted(factories)}"
        ) from None
