"""Ablations of the design choices DESIGN.md calls out.

* :func:`run_lock_ablation` — Section 3.4: the inode-lock fix
  (mutual-exclusion vs readers/writer semaphore) on a four-processor
  lookup-heavy workload; the paper saw 20–30% better base response.
* :func:`run_bw_threshold_sweep` — Section 3.3/4.5: the BW difference
  threshold's isolation-vs-throughput trade-off (0 is round-robin-like,
  very large degenerates to position-only scheduling).
* :func:`run_decay_sweep` — the disk bandwidth counter's decay period
  (finer decay approximates an instantaneous rate better).
* :func:`run_reserve_sweep` — the memory Reserve Threshold that hides
  revocation cost when lending idle pages.
* :func:`run_fractional_partition` — the hybrid space/time CPU
  partition with non-integral entitlements (3 SPUs on 8 CPUs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.api import SimulationSpec, build, experiment
from repro.core.schemes import (
    DiskSchedPolicy,
    IsolationParams,
    piso_scheme,
    smp_scheme,
    stride_scheme,
)
from repro.kernel.locks import KernelLock
from repro.kernel.syscalls import Acquire, Behavior, Compute, Release, Sleep
from repro.metrics.stats import mean_response_us
from repro.sim.units import MSEC, SEC, usecs
from repro.experiments.disk_bandwidth import run_big_small_copy
from repro.experiments.memory_isolation import (
    DEFAULT_PMAKE as MEMORY_PMAKE,
    run_memory_isolation,
)


# --- Section 3.4: lock granularity -----------------------------------------


@dataclass(frozen=True)
class LockAblationResult:
    """Mean job response under each inode-lock implementation."""

    mutex_response_us: float
    rwlock_response_us: float
    mutex_contentions: int
    rwlock_contentions: int

    @property
    def improvement_percent(self) -> float:
        """How much the readers/writer fix helps (paper: 20-30%)."""
        return 100.0 * (1.0 - self.rwlock_response_us / self.mutex_response_us)


def _lookup_job(
    lock: KernelLock, lookups: int, crit_us: int, work_us: int, write_every: int
) -> Behavior:
    """A filesystem-metadata-heavy job: mostly shared inode lookups."""
    lookup = Acquire(lock, shared=True)
    update = Acquire(lock, shared=False)
    crit = Compute(crit_us)
    release = Release(lock)
    work = Compute(work_us)
    for i in range(lookups):
        exclusive = write_every > 0 and i % write_every == write_every - 1
        yield update if exclusive else lookup
        yield crit
        yield release
        yield work


def run_lock_ablation(
    nprocs: int = 8,
    lookups: int = 150,
    crit_us: int = 600,
    work_us: int = 1300,
    write_every: int = 25,
    seed: int = 0,
) -> LockAblationResult:
    """Compare the root-inode lock as a mutex vs readers/writer."""
    responses: Dict[bool, float] = {}
    contentions: Dict[bool, int] = {}
    for reader_writer in (False, True):
        sim = build(SimulationSpec(
            ncpus=4, memory_mb=32, scheme=piso_scheme(),
            spus=["u0", "u1"], seed=seed,
        ))
        inode_lock = KernelLock("root-inode", reader_writer=reader_writer)
        for i in range(nprocs):
            sim.spawn(
                _lookup_job(inode_lock, lookups, crit_us, work_us, write_every),
                i % len(sim.spus),
                name=f"lookup{i}",
            )
        sim.run()
        responses[reader_writer] = mean_response_us(sim.results())
        contentions[reader_writer] = inode_lock.contentions
    return LockAblationResult(
        mutex_response_us=responses[False],
        rwlock_response_us=responses[True],
        mutex_contentions=contentions[False],
        rwlock_contentions=contentions[True],
    )


# --- Section 3.4: priority inversion / inheritance -----------------------------


@dataclass(frozen=True)
class InversionResult:
    """Lock wait of a high-priority process behind a preempted holder."""

    no_inheritance_wait_ms: float
    inheritance_wait_ms: float

    @property
    def speedup(self) -> float:
        return self.no_inheritance_wait_ms / max(self.inheritance_wait_ms, 1e-9)


def run_priority_inversion_ablation(seed: int = 0) -> InversionResult:
    """The classic inversion, on one CPU.

    A low-priority process takes a lock; medium-priority hogs preempt
    it; a high-priority process blocks on the lock and — without
    inheritance — waits out the entire medium-priority run.  The paper
    (Section 3.4) prescribes the [SRL90] fix: "a process blocking on a
    semaphore should transfer its resources to the process holding the
    semaphore"; ``KernelLock(inheritance=True)`` implements it.
    """
    results = {}
    for inheritance in (False, True):
        sim = build(SimulationSpec(
            ncpus=1, memory_mb=16, scheme=piso_scheme(), spus=["u"], seed=seed,
        ))
        kernel = sim.kernel
        spu = sim.spu("u")
        lock = KernelLock("resource", inheritance=inheritance)

        def low() -> Behavior:
            yield Acquire(lock)
            yield Compute(usecs(100_000))  # long critical section
            yield Release(lock)

        def medium() -> Behavior:
            yield Sleep(usecs(2_000))
            yield Compute(usecs(500_000))

        def high() -> Behavior:
            yield Sleep(usecs(5_000))
            yield Acquire(lock)
            yield Compute(usecs(1_000))
            yield Release(lock)

        kernel.spawn(low(), spu, name="low", base_priority=30)
        for i in range(2):
            kernel.spawn(medium(), spu, name=f"medium{i}", base_priority=20)
        high_proc = kernel.spawn(high(), spu, name="high", base_priority=5)
        kernel.run()
        wait_ms = (high_proc.response_us - 5_000 - 1_000) / 1000.0
        results[inheritance] = wait_ms
    return InversionResult(
        no_inheritance_wait_ms=results[False],
        inheritance_wait_ms=results[True],
    )


# --- Section 4.5: BW difference threshold ------------------------------------


@dataclass(frozen=True)
class ThresholdPoint:
    """Table-4 outcome at one BW-difference-threshold setting."""

    threshold: float
    small_response_s: float
    big_response_s: float
    small_wait_ms: float
    latency_ms: float


def run_bw_threshold_sweep(
    thresholds: Tuple[float, ...] = (0.0, 64.0, 256.0, 1024.0, 16384.0, 10**9),
    seed: int = 0,
) -> List[ThresholdPoint]:
    """Sweep the fairness threshold on the big-and-small-copy workload.

    Small values give round-robin-like isolation (small copy protected,
    seeks paid); huge values converge to Pos (small copy locked out).
    """
    points = []
    for threshold in thresholds:
        params = IsolationParams(bw_difference_threshold=threshold)
        row = run_big_small_copy(DiskSchedPolicy.PISO, seed=seed, params=params)
        points.append(
            ThresholdPoint(
                threshold=threshold,
                small_response_s=row.response_a_s,
                big_response_s=row.response_b_s,
                small_wait_ms=row.wait_a_ms,
                latency_ms=row.latency_ms,
            )
        )
    return points


def run_decay_sweep(
    periods_ms: Tuple[int, ...] = (50, 500, 5000), seed: int = 0
) -> List[ThresholdPoint]:
    """Sweep the bandwidth counter's decay period (default 500 ms)."""
    points = []
    for period in periods_ms:
        params = IsolationParams(disk_decay_period=period * MSEC)
        row = run_big_small_copy(DiskSchedPolicy.PISO, seed=seed, params=params)
        points.append(
            ThresholdPoint(
                threshold=float(period),
                small_response_s=row.response_a_s,
                big_response_s=row.response_b_s,
                small_wait_ms=row.wait_a_ms,
                latency_ms=row.latency_ms,
            )
        )
    return points


# --- Section 3.2: the memory Reserve Threshold ---------------------------------


@dataclass(frozen=True)
class ReservePoint:
    """Memory-isolation outcome at one Reserve Threshold setting."""

    reserve_fraction: float
    spu1_unbalanced_s: float
    spu2_unbalanced_s: float


def run_reserve_sweep(
    fractions: Tuple[float, ...] = (0.0, 0.08, 0.25), seed: int = 0
) -> List[ReservePoint]:
    """Sweep the free-page reserve used when lending idle memory.

    Zero lends everything (cheap loans, expensive revocation for the
    lender); large values barely lend at all (closer to fixed quotas).
    """
    points = []
    for fraction in fractions:
        params = IsolationParams(reserve_threshold=fraction)
        scheme = piso_scheme(params)
        run = run_memory_isolation(
            scheme, balanced=False, params=MEMORY_PMAKE, seed=seed
        )
        points.append(
            ReservePoint(
                reserve_fraction=fraction,
                spu1_unbalanced_s=run.spu1_response_us / 1e6,
                spu2_unbalanced_s=run.spu2_response_us / 1e6,
            )
        )
    return points


# --- Section 3.1: tick vs IPI loan revocation ---------------------------------


@dataclass(frozen=True)
class RevocationResult:
    """Interactive wake-up latency under each revocation mode."""

    tick_latency_ms: float
    ipi_latency_ms: float

    @property
    def speedup(self) -> float:
        return self.tick_latency_ms / max(self.ipi_latency_ms, 1e-9)


def _interactive_latency(params: IsolationParams, seed: int) -> float:
    """Mean extra latency per interactive burst while a hog borrows.

    One interactive process shares a two-CPU machine with a CPU hog in
    the other SPU; whenever the interactive process sleeps, the hog
    borrows its CPU, so every wake-up needs a revocation.
    """
    from repro.workloads.interactive import (
        InteractiveParams,
        cpu_hog,
        interactive_excess_latency_us,
        interactive_user,
    )

    spec = InteractiveParams(bursts=100, think_ms=20.0, burst_ms=1.0)
    sim = build(SimulationSpec(
        ncpus=2, memory_mb=16, scheme=piso_scheme(params),
        spus=["interactive", "hog"], seed=seed,
    ))
    kernel = sim.kernel
    proc = sim.spawn(interactive_user(spec), "interactive", name="interactive")
    for i in range(2):
        sim.spawn(cpu_hog(30_000.0), "hog", name=f"hog{i}")
    kernel.run(until=3 * spec.ideal_us)
    if proc.finished < 0:
        # Interactive never finished inside the window: report the
        # overrun so the comparison still works.
        return (kernel.engine.now - spec.ideal_us) / spec.bursts / 1000.0
    return interactive_excess_latency_us(proc, spec) / 1000.0


def run_revocation_ablation(seed: int = 0) -> RevocationResult:
    """Tick-mode (paper) vs IPI-mode revocation latency."""
    tick = _interactive_latency(IsolationParams(revocation_mode="tick"), seed)
    ipi = _interactive_latency(IsolationParams(revocation_mode="ipi"), seed)
    return RevocationResult(tick_latency_ms=tick, ipi_latency_ms=ipi)


# --- Section 3.1: CPU migration (cache pollution) cost ---------------------------


@dataclass(frozen=True)
class MigrationPoint:
    """Throughput at one cache-affinity cost setting."""

    migration_cost_us: int
    scheme: str
    mean_response_s: float


def run_migration_sweep(
    costs_us: Tuple[int, ...] = (0, 500, 2000),
    seed: int = 0,
) -> List[MigrationPoint]:
    """The cost of CPU reallocation churn ("cache pollution").

    An over-subscribed SMP mix bounces processes between CPUs at every
    slice (no affinity in the stock global queue); a positive migration
    cost burns warm-up time on each bounce.  The partitioned PIso run
    is the control: its processes stay on their home CPUs, so the same
    cost setting barely moves it — space partitioning is itself an
    affinity mechanism.
    """
    points: List[MigrationPoint] = []

    def job() -> Behavior:
        yield Compute(usecs(400_000))

    for cost in costs_us:
        for scheme_factory in (smp_scheme, piso_scheme, stride_scheme):
            params = IsolationParams(migration_cost=cost)
            scheme = scheme_factory(params)  # simlint: dynamic=factory-table
            sim = build(SimulationSpec(
                ncpus=2, memory_mb=16, scheme=scheme,
                spus=["u0", "u1"], seed=seed,
            ))
            # An odd process count: round-robin over two CPUs then
            # lands each process on alternating CPUs, so affinity is
            # broken at nearly every slice on the global queue.
            procs = [
                sim.spawn(job(), i % 2, name=f"j{i}") for i in range(5)
            ]
            sim.run()
            mean = sum(p.response_us for p in procs) / len(procs) / 1e6
            points.append(
                MigrationPoint(
                    migration_cost_us=cost,
                    scheme=scheme.name,
                    mean_response_s=mean,
                )
            )
    return points


@dataclass(frozen=True)
class HolddownResult:
    """Loan churn with and without the revocation hold-down."""

    loans_without: int
    loans_with: int


def run_holddown_ablation(holddown_ms: float = 50.0, seed: int = 0) -> HolddownResult:
    """How much a loan hold-down damps reallocation churn.

    The interactive+hog scenario revokes a loan on every interactive
    wake-up; with a hold-down the freed CPU is not instantly re-lent,
    collapsing the grant/revoke ping-pong the paper warns about.
    """
    loans = {}
    for holddown in (0.0, holddown_ms):
        params = IsolationParams(loan_holddown=usecs(holddown * 1000))
        sim = build(SimulationSpec(
            ncpus=2, memory_mb=16, scheme=piso_scheme(params),
            spus=["interactive", "hog"], seed=seed,
        ))
        from repro.workloads.interactive import (
            InteractiveParams, cpu_hog, interactive_user,
        )

        spec = InteractiveParams(bursts=50, think_ms=20.0, burst_ms=1.0)
        sim.spawn(interactive_user(spec), "interactive")
        for i in range(2):
            sim.spawn(cpu_hog(5000.0), "hog")
        sim.run(until=usecs(2_000_000))
        loans[holddown] = sim.kernel.cpusched.loans_granted
    return HolddownResult(
        loans_without=loans[0.0], loans_with=loans[holddown_ms]
    )


# --- Related work: SPU partitioning vs stride scheduling -------------------------


@dataclass(frozen=True)
class SchedulerComparison:
    """The CPU-isolation workload under PIso and stride scheduling.

    Values are percent of the SMP case, as in Figure 5; the paper's
    related work argues both approaches deliver proportional shares —
    this measures how close they land on identical workloads.
    """

    piso: Dict[str, float]
    stride: Dict[str, float]


def run_scheduler_comparison(seed: int = 0) -> SchedulerComparison:
    """Figure-5 workload: the paper's partitioned PIso vs stride [Wal95]."""
    from repro.experiments.cpu_isolation import run_cpu_isolation

    base = run_cpu_isolation(smp_scheme(), seed=seed)
    rows = {}
    for scheme in (piso_scheme(), stride_scheme()):
        run = run_cpu_isolation(scheme, seed=seed)
        rows[scheme.name] = {
            "ocean": 100.0 * run.ocean_us / base.ocean_us,
            "flashlite": 100.0 * run.flashlite_us / base.flashlite_us,
            "vcs": 100.0 * run.vcs_us / base.vcs_us,
        }
    return SchedulerComparison(piso=rows["PIso"], stride=rows["Stride"])


# --- Section 3.1: fractional (time-partitioned) CPU shares ----------------------


@dataclass(frozen=True)
class FractionalPartitionResult:
    """CPU time received by 3 equal SPUs sharing 8 CPUs (2.667 each)."""

    cpu_seconds_by_spu: Dict[str, float]

    @property
    def max_imbalance_percent(self) -> float:
        values = list(self.cpu_seconds_by_spu.values())
        mean = sum(values) / len(values)
        return 100.0 * max(abs(v - mean) for v in values) / mean


def run_fractional_partition(
    nspus: int = 3, ncpus: int = 8, job_ms: float = 3000.0, seed: int = 0
) -> FractionalPartitionResult:
    """Three saturating SPUs on eight CPUs: each should get 8/3 CPUs.

    Exercises the hybrid partition's time-shared CPUs (each SPU gets
    two dedicated CPUs plus a rotating 2/3 share of the remainder).
    """

    def spinner(ms: float) -> Behavior:
        yield Compute(usecs(ms * 1000))

    sim = build(SimulationSpec(
        ncpus=ncpus, memory_mb=64, scheme=piso_scheme(),
        spus=[f"project{i}" for i in range(nspus)], seed=seed,
    ))
    for spu in sim.spus:
        # Enough processes to saturate any CPU the SPU is offered.
        for j in range(ncpus):
            sim.spawn(spinner(job_ms), spu, name=f"{spu.name}-spin{j}")
    # Run for a fixed window; jobs are sized to outlast it.
    sim.run(until=2 * SEC)
    by_spu = {
        spu.name: sim.kernel.cpu_account.total(spu.spu_id) / 1e6
        for spu in sim.spus
    }
    return FractionalPartitionResult(cpu_seconds_by_spu=by_spu)


# --- the registry aggregate: every ablation in one run ---------------------------


@dataclass(frozen=True)
class AblationsResult:
    """All the ablation sweeps for one seed, in one result."""

    lock: LockAblationResult
    bw_threshold: List[ThresholdPoint]
    decay: List[ThresholdPoint]
    reserve: List[ReservePoint]
    fractional: FractionalPartitionResult
    revocation: RevocationResult
    migration: List[MigrationPoint]
    holddown: HolddownResult
    inversion: InversionResult


def _render(result: AblationsResult) -> str:
    from repro.metrics.report import format_table

    parts = []
    lock = result.lock
    parts.append(
        f"Lock ablation (Section 3.4): mutex {lock.mutex_response_us / 1e6:.2f}s"
        f" -> readers/writer {lock.rwlock_response_us / 1e6:.2f}s"
        f" ({lock.improvement_percent:.0f}% better; paper: 20-30%)"
    )
    rows = [
        [f"{p.threshold:g}", f"{p.small_response_s:.2f}", f"{p.big_response_s:.2f}",
         f"{p.latency_ms:.2f}"]
        for p in result.bw_threshold
    ]
    parts.append(
        format_table(
            ["threshold", "small s", "big s", "lat ms"],
            rows,
            title="BW-difference threshold sweep (0 = round-robin-like,"
            " inf = position-only)",
        )
    )
    rows = [
        [f"{p.threshold:g}", f"{p.small_response_s:.2f}", f"{p.big_response_s:.2f}"]
        for p in result.decay
    ]
    parts.append(format_table(["decay ms", "small s", "big s"], rows,
                              title="Bandwidth-counter decay period sweep"))
    rows = [
        [f"{p.reserve_fraction:.2f}", f"{p.spu1_unbalanced_s:.2f}",
         f"{p.spu2_unbalanced_s:.2f}"]
        for p in result.reserve
    ]
    parts.append(format_table(["reserve", "spu1 s", "spu2 s"], rows,
                              title="Memory Reserve Threshold sweep"))
    frac = result.fractional
    parts.append(
        "Fractional CPU partition (3 SPUs on 8 CPUs): "
        + ", ".join(f"{k}={v:.2f}s" for k, v in frac.cpu_seconds_by_spu.items())
        + f" (max imbalance {frac.max_imbalance_percent:.1f}%)"
    )
    revocation = result.revocation
    parts.append(
        f"Revocation latency: tick {revocation.tick_latency_ms:.2f} ms/burst"
        f" vs IPI {revocation.ipi_latency_ms:.2f} ms/burst"
        f" ({revocation.speedup:.0f}x; paper suggests IPIs for interactive"
        " response-time guarantees)"
    )
    rows = [
        [f"{p.migration_cost_us}", p.scheme, f"{p.mean_response_s:.3f}"]
        for p in result.migration
    ]
    parts.append(format_table(
        ["migration cost us", "scheme", "mean response s"], rows,
        title="Cache-affinity (migration) cost sweep — partitioning is"
        " itself an affinity mechanism",
    ))
    holddown = result.holddown
    parts.append(
        f"Loan hold-down: {holddown.loans_without} loans granted without"
        f" vs {holddown.loans_with} with a 50 ms hold-down"
    )
    inversion = result.inversion
    parts.append(
        f"Priority inversion (Section 3.4 / [SRL90]): high-priority lock"
        f" wait {inversion.no_inheritance_wait_ms:.0f} ms ->"
        f" {inversion.inheritance_wait_ms:.0f} ms with inheritance"
        f" ({inversion.speedup:.1f}x)"
    )
    return "\n\n".join(parts)


@experiment("ablations", title="Ablations", render=_render, quick=True)
def run_ablations(seed: int = 0) -> AblationsResult:
    """Every ablation sweep, bundled for the registry and the runner."""
    return AblationsResult(
        lock=run_lock_ablation(seed=seed),
        bw_threshold=run_bw_threshold_sweep(seed=seed),
        decay=run_decay_sweep(seed=seed),
        reserve=run_reserve_sweep(seed=seed),
        fractional=run_fractional_partition(seed=seed),
        revocation=run_revocation_ablation(seed=seed),
        migration=run_migration_sweep(seed=seed),
        holddown=run_holddown_ablation(seed=seed),
        inversion=run_priority_inversion_ablation(seed=seed),
    )
