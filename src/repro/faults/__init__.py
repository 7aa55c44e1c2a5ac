"""Deterministic hardware-fault injection (see DESIGN.md).

The paper argues performance isolation must hold "even in the presence
of a misbehaving SPU"; this package extends the claim to misbehaving
*hardware*.  A :class:`~repro.faults.plan.FaultPlan` declares disk
transient-error windows, permanent drive deaths, CPU hot-remove/add
and memory module loss at absolute simulated times; a
:class:`~repro.faults.injector.FaultInjector` arms the plan on a booted
kernel as ordinary (daemon) simulation events, and the
:class:`~repro.faults.invariants.InvariantWatchdog` checks conservation
laws every clock tick while the machine degrades.

Everything is driven by the seeded engine: the same seed and the same
plan give byte-identical runs.

:mod:`repro.faults.fleet` lifts the same idea one level up: a
:class:`~repro.faults.fleet.FleetFaultPlan` schedules whole-machine
crashes, recoveries and network partitions for the fleet layer
(:mod:`repro.fleet`), which answers them with checkpoint/migration
failover instead of in-kernel degradation.
"""

from repro.faults.fleet import (
    FleetFaultEvent,
    FleetFaultPlan,
    MachineCrash,
    MachineRecover,
    NetworkPartition,
)
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    Escalation,
    InvariantWatchdog,
    OverloadGuard,
    Violation,
)
from repro.faults.plan import (
    CpuAdd,
    CpuRemove,
    DiskFailure,
    DiskTransient,
    FaultEvent,
    FaultPlan,
    FaultPlanError,
    MemoryLoss,
)

__all__ = [
    "CpuAdd",
    "CpuRemove",
    "DiskFailure",
    "DiskTransient",
    "Escalation",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FleetFaultEvent",
    "FleetFaultPlan",
    "InvariantWatchdog",
    "MachineCrash",
    "MachineRecover",
    "MemoryLoss",
    "NetworkPartition",
    "OverloadGuard",
    "Violation",
]
