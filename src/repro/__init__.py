"""Performance Isolation — a reproduction of Verghese, Gupta &
Rosenblum, *Performance Isolation: Sharing and Isolation in
Shared-Memory Multiprocessors* (ASPLOS 1998).

The package implements the paper's Software Performance Unit (SPU)
abstraction and the three resource-allocation schemes it evaluates
(SMP / Quo / PIso) on top of a deterministic discrete-event machine
simulator: an IRIX-like kernel with priority CPU scheduling, demand
paged memory, a buffer-cached filesystem, and an HP 97560 disk model.

Quick start::

    from repro import (
        Kernel, MachineConfig, DiskSpec, piso_scheme, Compute,
    )

    def job():
        yield Compute(1_000_000)  # one second of CPU

    kernel = Kernel(MachineConfig(ncpus=4, memory_mb=32, scheme=piso_scheme()))
    spu = kernel.create_spu("me")
    kernel.boot()
    proc = kernel.spawn(job(), spu)
    kernel.run()
    print(proc.response_us)

Subpackages
-----------

* :mod:`repro.core` — the SPU abstraction (the paper's contribution).
* :mod:`repro.sim` — the discrete-event engine.
* :mod:`repro.cpu` / :mod:`repro.mem` / :mod:`repro.disk` /
  :mod:`repro.fs` — the resource substrates.
* :mod:`repro.kernel` — the simulated operating system.
* :mod:`repro.faults` — deterministic hardware-fault injection.
* :mod:`repro.workloads` — pmake, copy, Ocean/Flashlite/VCS models.
* :mod:`repro.experiments` — one driver per paper table/figure.
* :mod:`repro.fuzz` — generative scenario fuzzing with ddmin shrinking.
"""

from repro.core import (
    DiskSchedPolicy,
    EqualShareContract,
    IsolationParams,
    Resource,
    ResourceLevels,
    SPU,
    SPURegistry,
    SchemeConfig,
    WeightedContract,
    piso_scheme,
    quota_scheme,
    scheme_by_name,
    smp_scheme,
    stride_scheme,
)
from repro.kernel import (
    Acquire,
    Barrier,
    BarrierWait,
    Checkpoint,
    Compute,
    DiskSpec,
    Gang,
    Kernel,
    KernelLock,
    MachineConfig,
    NicSpec,
    Process,
    ProcessState,
    ReadFile,
    Release,
    SendNetwork,
    SetWorkingSet,
    Sleep,
    Spawn,
    WaitChildren,
    WriteFile,
    WriteMetadata,
)
from repro.faults import (
    CpuAdd,
    CpuRemove,
    DiskFailure,
    DiskTransient,
    FaultInjector,
    FaultPlan,
    InvariantWatchdog,
    MemoryLoss,
)
from repro.metrics import job_results, mean_response_us, normalize
from repro.sim import Engine

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Resource",
    "ResourceLevels",
    "SPU",
    "SPURegistry",
    "EqualShareContract",
    "WeightedContract",
    "SchemeConfig",
    "IsolationParams",
    "DiskSchedPolicy",
    "smp_scheme",
    "quota_scheme",
    "piso_scheme",
    "stride_scheme",
    "scheme_by_name",
    # kernel
    "Kernel",
    "MachineConfig",
    "DiskSpec",
    "NicSpec",
    "Process",
    "ProcessState",
    "KernelLock",
    "Barrier",
    "Gang",
    "Checkpoint",
    "SendNetwork",
    "Compute",
    "SetWorkingSet",
    "ReadFile",
    "WriteFile",
    "WriteMetadata",
    "Sleep",
    "Spawn",
    "WaitChildren",
    "BarrierWait",
    "Acquire",
    "Release",
    # faults
    "FaultPlan",
    "FaultInjector",
    "InvariantWatchdog",
    "DiskTransient",
    "DiskFailure",
    "CpuRemove",
    "CpuAdd",
    "MemoryLoss",
    # sim & metrics
    "Engine",
    "job_results",
    "mean_response_us",
    "normalize",
]
