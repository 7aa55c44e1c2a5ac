"""Workload generators calibrated to the paper's applications."""

from repro.workloads.base import chunks, waves
from repro.workloads.copy import CopyParams, copy_job, create_copy_files
from repro.workloads.interactive import (
    InteractiveParams,
    bulk_sender,
    burst_latencies_ms,
    cpu_hog,
    interactive_excess_latency_us,
    interactive_user,
    percentile,
    rpc_client,
)
from repro.workloads.pmake import (
    PmakeFiles,
    PmakeParams,
    compile_task,
    create_pmake_files,
    pmake_job,
)
from repro.workloads.scientific import (
    OceanParams,
    SimulatorParams,
    ocean_processes,
    simulator_process,
)

__all__ = [
    "chunks",
    "waves",
    "PmakeParams",
    "PmakeFiles",
    "create_pmake_files",
    "pmake_job",
    "compile_task",
    "CopyParams",
    "create_copy_files",
    "copy_job",
    "OceanParams",
    "ocean_processes",
    "SimulatorParams",
    "simulator_process",
    "InteractiveParams",
    "interactive_user",
    "interactive_excess_latency_us",
    "cpu_hog",
    "rpc_client",
    "bulk_sender",
    "burst_latencies_ms",
    "percentile",
]
