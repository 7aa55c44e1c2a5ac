"""The paper's contribution: the SPU abstraction and isolation model.

* :mod:`repro.core.resources` — the entitled/allowed/used three-level
  model per resource.
* :mod:`repro.core.spu` — SPUs, the registry, and the ``kernel`` /
  ``shared`` default SPUs.
* :mod:`repro.core.contracts` — dividing the machine into entitlements.
* :mod:`repro.core.schemes` — the SMP / Quo / PIso scheme bundles the
  evaluation compares; their flags carry each scheme's sharing policy
  (whether idle CPUs and memory are lent).
* :mod:`repro.core.accounting` — decayed bandwidth counters and
  per-SPU CPU time.
"""

from repro.core.accounting import CpuTimeAccount, DecayedCounter
from repro.core.contracts import (
    ContractError,
    EqualShareContract,
    ScaledContract,
    SharingContract,
    WeightedContract,
    apportion,
)
from repro.core.goals import (
    AdaptiveContract,
    GoalManager,
    GoalReport,
    VelocityGoal,
)
from repro.core.resources import MILLI_CPU, Resource, ResourceLevelError, ResourceLevels
from repro.core.schemes import (
    DiskSchedPolicy,
    IsolationParams,
    SchemeConfig,
    piso_scheme,
    quota_scheme,
    scheme_by_name,
    smp_scheme,
    stride_scheme,
)
from repro.core.spu import (
    KERNEL_SPU_ID,
    SHARED_SPU_ID,
    SPU,
    SPUError,
    SPUKind,
    SPURegistry,
    SPUState,
)

__all__ = [
    "Resource",
    "ResourceLevels",
    "ResourceLevelError",
    "MILLI_CPU",
    "SPU",
    "SPUKind",
    "SPUState",
    "SPUError",
    "SPURegistry",
    "KERNEL_SPU_ID",
    "SHARED_SPU_ID",
    "SharingContract",
    "EqualShareContract",
    "ScaledContract",
    "WeightedContract",
    "ContractError",
    "apportion",
    "AdaptiveContract",
    "GoalManager",
    "GoalReport",
    "VelocityGoal",
    "DecayedCounter",
    "CpuTimeAccount",
    "DiskSchedPolicy",
    "IsolationParams",
    "SchemeConfig",
    "smp_scheme",
    "quota_scheme",
    "piso_scheme",
    "stride_scheme",
    "scheme_by_name",
]
