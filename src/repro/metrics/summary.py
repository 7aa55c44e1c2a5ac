"""Whole-machine run summaries.

:func:`machine_report` condenses a finished (or paused) kernel into one
dataclass — utilization, scheduling churn, per-SPU resource totals,
disk and cache statistics — and :func:`format_report` renders it.  This
is the SimOS-style "statistics collection" surface the paper's
methodology leaned on (Section 4.1), for this simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, TYPE_CHECKING

from repro.metrics.report import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel


@dataclass(frozen=True)
class SpuSummary:
    """Per-SPU totals over the run."""

    spu_id: int
    name: str
    cpu_seconds: float
    mem_used_pages: int
    mem_entitled_pages: int
    disk_requests: int
    disk_sectors: int
    processes: int


@dataclass(frozen=True)
class DiskSummary:
    """Per-drive totals over the run."""

    disk_id: int
    requests: int
    sectors: int
    mean_wait_ms: float
    mean_latency_ms: float
    utilization: float
    transient_errors: int = 0
    retries: int = 0
    failed_requests: int = 0
    alive: bool = True


@dataclass(frozen=True)
class FaultSummary:
    """Hardware-fault activity over the run (all zero on a healthy machine)."""

    cpus_removed: int = 0
    cpus_added: int = 0
    disks_failed: int = 0
    pages_decommissioned: int = 0
    renegotiations: int = 0
    swap_io_errors: int = 0
    transient_errors: int = 0
    failed_requests: int = 0

    @property
    def any_faults(self) -> bool:
        return any(
            (
                self.cpus_removed,
                self.cpus_added,
                self.disks_failed,
                self.pages_decommissioned,
                self.transient_errors,
                self.failed_requests,
                self.swap_io_errors,
            )
        )


@dataclass(frozen=True)
class MachineReport:
    """Everything notable about one run, in one place."""

    simulated_seconds: float
    cpu_utilization: float
    context_switches: int
    loans_granted: int
    loans_revoked: int
    cache_hit_ratio: float
    free_pages: int
    spus: List[SpuSummary] = field(default_factory=list)
    disks: List[DiskSummary] = field(default_factory=list)
    faults: FaultSummary = field(default_factory=FaultSummary)


def machine_report(kernel: "Kernel") -> MachineReport:
    """Summarise a kernel's run so far."""
    now = kernel.engine.now
    spus = []
    for spu in kernel.registry.user_spus():
        requests = sum(d.stats.count(spu.spu_id) for d in kernel.drives)
        sectors = sum(d.stats.total_sectors(spu.spu_id) for d in kernel.drives)
        processes = sum(
            1 for p in kernel.processes.values() if p.spu_id == spu.spu_id
        )
        spus.append(
            SpuSummary(
                spu_id=spu.spu_id,
                name=spu.name,
                cpu_seconds=kernel.cpu_account.total(spu.spu_id) / 1e6,
                mem_used_pages=spu.memory().used,
                mem_entitled_pages=spu.memory().entitled,
                disk_requests=requests,
                disk_sectors=sectors,
                processes=processes,
            )
        )
    disks = []
    for drive in kernel.drives:
        busy = drive.stats.busy_us
        disks.append(
            DiskSummary(
                disk_id=drive.disk_id,
                requests=drive.stats.count(),
                sectors=drive.stats.total_sectors(),
                mean_wait_ms=drive.stats.mean_wait_ms(),
                mean_latency_ms=drive.stats.mean_latency_ms(),
                utilization=busy / now if now else 0.0,
                transient_errors=drive.stats.transient_errors,
                retries=drive.stats.retries,
                failed_requests=drive.stats.failed_requests,
                alive=drive.alive,
            )
        )
    faults = FaultSummary(
        cpus_removed=kernel.cpus_removed,
        cpus_added=kernel.cpus_added,
        disks_failed=len(kernel.disks_failed),
        pages_decommissioned=kernel.memory.decommissioned,
        renegotiations=kernel.renegotiations,
        swap_io_errors=kernel.swap_io_errors,
        transient_errors=sum(d.stats.transient_errors for d in kernel.drives),
        failed_requests=sum(d.stats.failed_requests for d in kernel.drives),
    )
    sched = kernel.cpusched
    return MachineReport(
        simulated_seconds=now / 1e6,
        cpu_utilization=kernel.cpu_utilization(),
        context_switches=kernel.context_switches,
        loans_granted=sched.loans_granted if sched else 0,
        loans_revoked=sched.loans_revoked if sched else 0,
        cache_hit_ratio=kernel.fs.cache.hit_ratio,
        free_pages=kernel.memory.free_pages,
        spus=spus,
        disks=disks,
        faults=faults,
    )


def format_report(report: MachineReport) -> str:
    """Render a MachineReport as plain text."""
    head = (
        f"simulated {report.simulated_seconds:.2f}s |"
        f" cpu {report.cpu_utilization * 100:.0f}% busy,"
        f" {report.context_switches} switches,"
        f" loans {report.loans_granted}/{report.loans_revoked} granted/revoked |"
        f" cache hit {report.cache_hit_ratio * 100:.0f}% |"
        f" {report.free_pages} pages free"
    )
    spu_rows = [
        [s.name, f"{s.cpu_seconds:.2f}", s.mem_used_pages, s.mem_entitled_pages,
         s.disk_requests, s.processes]
        for s in report.spus
    ]
    disk_rows = [
        [f"{d.disk_id}{'' if d.alive else ' DEAD'}", d.requests, d.sectors,
         f"{d.mean_wait_ms:.1f}", f"{d.mean_latency_ms:.2f}",
         f"{d.utilization * 100:.0f}%", d.transient_errors, d.failed_requests]
        for d in report.disks
    ]
    parts = [head]
    if spu_rows:
        parts.append(format_table(
            ["spu", "cpu s", "mem used", "mem entitled", "disk reqs", "procs"],
            spu_rows,
        ))
    if disk_rows:
        parts.append(format_table(
            ["disk", "reqs", "sectors", "wait ms", "lat ms", "busy",
             "io errs", "failed"],
            disk_rows,
        ))
    faults = report.faults
    if faults.any_faults:
        parts.append(
            "faults:"
            f" cpus -{faults.cpus_removed}/+{faults.cpus_added} |"
            f" disks failed {faults.disks_failed} |"
            f" pages lost {faults.pages_decommissioned} |"
            f" io errors {faults.transient_errors}"
            f" ({faults.failed_requests} requests failed,"
            f" {faults.swap_io_errors} swap) |"
            f" renegotiations {faults.renegotiations}"
        )
    return "\n".join(parts)
