"""The stable public surface of the reproduction — ``repro.api`` v1.

Everything a user-facing script needs lives here: declarative machine
specs (``SimulationSpec``/``build``/``run``), the experiment registry
(``@experiment``/``run_experiment``), fleet and scenario specs, sweep
execution (``SweepPlan``), and the handful of workload, fault, metric,
and unit helpers the ``examples/`` scripts are written against.

Import from ``repro.api`` only — deep module paths (``repro.kernel``,
``repro.parallel.executor``, …) are internal and may move between
releases; this facade is the compatibility contract
(``tests/test_api_surface.py`` holds examples and README to it).
Symbols beyond the eagerly-imported spec/registry core resolve lazily
on first attribute access, both to keep ``import repro.api`` cheap and
because the fleet layer builds *on* this facade (its runner lowers
machines onto ``SimulationSpec``), so eager re-export would be
circular.
"""

from repro.api.registry import (
    Experiment,
    ExperimentResult,
    ExperimentSpec,
    experiment,
    get,
    load_all,
    names,
)
from repro.api.registry import run as run_experiment
from repro.api.spec import Simulation, SimulationSpec, SpuSpec, build, run

#: Lazily-resolved exports: public name -> (module, attribute).
_LAZY_EXPORTS = {
    # fleet (builds on this facade; must stay lazy)
    "FleetMachineSpec": ("repro.fleet.spec", "FleetMachineSpec"),
    "FleetResult": ("repro.fleet.runner", "FleetResult"),
    "FleetSpec": ("repro.fleet.spec", "FleetSpec"),
    "FleetSpuSpec": ("repro.fleet.spec", "FleetSpuSpec"),
    "build_fleet": ("repro.fleet.runner", "build_fleet"),
    "run_fleet": ("repro.fleet.runner", "run_fleet"),
    # scenario fuzzing
    "ScenarioSpec": ("repro.fuzz.scenario", "ScenarioSpec"),
    # parallel sweeps
    "Executor": ("repro.parallel", "Executor"),
    "RunOutcome": ("repro.parallel", "RunOutcome"),
    "SweepCache": ("repro.parallel", "SweepCache"),
    "SweepError": ("repro.parallel", "SweepError"),
    "SweepPlan": ("repro.parallel", "SweepPlan"),
    "SweepStats": ("repro.parallel", "SweepStats"),
    "WorkerPool": ("repro.parallel", "WorkerPool"),
    "sweep_values": ("repro.parallel", "values"),
    # machine construction and schemes
    "DiskSpec": ("repro", "DiskSpec"),
    "Kernel": ("repro", "Kernel"),
    "MachineConfig": ("repro", "MachineConfig"),
    "NicSpec": ("repro", "NicSpec"),
    "piso_scheme": ("repro", "piso_scheme"),
    "quota_scheme": ("repro", "quota_scheme"),
    "scheme_by_name": ("repro", "scheme_by_name"),
    "smp_scheme": ("repro", "smp_scheme"),
    "stride_scheme": ("repro", "stride_scheme"),
    # resource contracts and goals
    "AdaptiveContract": ("repro.core", "AdaptiveContract"),
    "DiskSchedPolicy": ("repro.core", "DiskSchedPolicy"),
    "EqualShareContract": ("repro.core", "EqualShareContract"),
    "GoalManager": ("repro.core", "GoalManager"),
    "VelocityGoal": ("repro.core", "VelocityGoal"),
    "WeightedContract": ("repro.core", "WeightedContract"),
    # process programs (syscall operations)
    "Acquire": ("repro", "Acquire"),
    "Barrier": ("repro", "Barrier"),
    "BarrierWait": ("repro", "BarrierWait"),
    "Checkpoint": ("repro", "Checkpoint"),
    "Compute": ("repro", "Compute"),
    "Gang": ("repro", "Gang"),
    "ReadFile": ("repro", "ReadFile"),
    "Release": ("repro", "Release"),
    "SendNetwork": ("repro", "SendNetwork"),
    "SetWorkingSet": ("repro", "SetWorkingSet"),
    "Sleep": ("repro", "Sleep"),
    "Spawn": ("repro", "Spawn"),
    "WaitChildren": ("repro", "WaitChildren"),
    "WriteFile": ("repro", "WriteFile"),
    "WriteMetadata": ("repro", "WriteMetadata"),
    # hardware faults
    "CpuAdd": ("repro", "CpuAdd"),
    "CpuRemove": ("repro", "CpuRemove"),
    "DiskFailure": ("repro", "DiskFailure"),
    "DiskTransient": ("repro", "DiskTransient"),
    "FaultInjector": ("repro", "FaultInjector"),
    "FaultPlan": ("repro", "FaultPlan"),
    "InvariantWatchdog": ("repro", "InvariantWatchdog"),
    "MemoryLoss": ("repro", "MemoryLoss"),
    # disk service-time models
    "fast_disk": ("repro.disk", "fast_disk"),
    "hp97560": ("repro.disk", "hp97560"),
    # metrics and reporting
    "UtilizationSampler": ("repro.metrics", "UtilizationSampler"),
    "format_report": ("repro.metrics", "format_report"),
    "format_table": ("repro.metrics", "format_table"),
    "machine_report": ("repro.metrics", "machine_report"),
    # simulation units
    "KB": ("repro.sim.units", "KB"),
    "MB": ("repro.sim.units", "MB"),
    "msecs": ("repro.sim.units", "msecs"),
    "secs": ("repro.sim.units", "secs"),
    "to_seconds": ("repro.sim.units", "to_seconds"),
    # canned workloads
    "CopyParams": ("repro.workloads", "CopyParams"),
    "PmakeParams": ("repro.workloads", "PmakeParams"),
    "copy_job": ("repro.workloads", "copy_job"),
    "create_copy_files": ("repro.workloads", "create_copy_files"),
    "create_pmake_files": ("repro.workloads", "create_pmake_files"),
    "pmake_job": ("repro.workloads", "pmake_job"),
    # the paper-reproduction CLI (figures/tables driver)
    "paper_main": ("repro.experiments.runner", "main"),
}


def __getattr__(name: str):
    entry = _LAZY_EXPORTS.get(name)
    if entry is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(entry[0]), entry[1])
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(__all__) | set(globals()))


__all__ = [
    "Experiment",
    "ExperimentResult",
    "ExperimentSpec",
    "Simulation",
    "SimulationSpec",
    "SpuSpec",
    "build",
    "experiment",
    "get",
    "load_all",
    "names",
    "run",
    "run_experiment",
    *sorted(_LAZY_EXPORTS),
]
