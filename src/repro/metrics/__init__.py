"""Metrics: job statistics and report formatting."""

from repro.metrics.export import to_records
from repro.metrics.report import format_table
from repro.metrics.summary import (
    DiskSummary,
    MachineReport,
    SpuSummary,
    format_report,
    machine_report,
)
from repro.metrics.timeline import (
    SpuTimeline,
    UtilizationSample,
    UtilizationSampler,
)
from repro.metrics.stats import (
    JobResult,
    MetricsError,
    job_results,
    mean_response_by_spu,
    mean_response_us,
    normalize,
)

__all__ = [
    "JobResult",
    "MetricsError",
    "job_results",
    "mean_response_us",
    "mean_response_by_spu",
    "normalize",
    "format_table",
    "UtilizationSampler",
    "UtilizationSample",
    "SpuTimeline",
    "to_records",
    "MachineReport",
    "SpuSummary",
    "DiskSummary",
    "machine_report",
    "format_report",
]
