"""The chaos soak: one plan against one kernel, fully journalled.

:func:`run_chaos` boots the standard chaos machine, plants a
latency-sensitive victim SPU next to an attacker SPU, arms the plan's
fault schedule (``on_error="skip"`` so shrunken plans stay runnable),
fires each antagonist burst at its appointed time, and runs to the
horizon under the :class:`~repro.faults.InvariantWatchdog` and the
:class:`~repro.faults.OverloadGuard`.

Two invariant families are asserted:

* the PR-1 conservation laws (pages, CPU capacity, level sanity,
  starvation, dead drives), via the watchdog;
* **victim progress**: the victim's jobs checkpoint after every short
  compute burst, and no :data:`PROGRESS_WINDOW_US` window of the run
  may pass without a single victim checkpoint.  This is the paper's
  isolation claim as a lower bound — whatever the antagonists and the
  hardware do, the victim keeps moving.

Every notable occurrence (burst launches, faults applied or skipped,
guard escalations, violations) lands in a deterministic journal: the
same plan replays to the byte-identical journal, which is what makes
repro files and delta-shrinking trustworthy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.antagonists import launch
from repro.chaos.plan import (
    CHAOS_MEMORY_MB,
    CHAOS_NCPUS,
    CHAOS_NDISKS,
    ChaosPlan,
    generate_plan,
)
from repro.core.schemes import SchemeConfig, piso_scheme
from repro.disk.model import fast_disk
from repro.faults import FaultInjector, InvariantWatchdog, OverloadGuard, Violation
from repro.kernel.kernel import Kernel
from repro.kernel.locks import KernelLock
from repro.kernel.machine import DiskSpec, MachineConfig
from repro.kernel.syscalls import Acquire, Behavior, Checkpoint, Compute, Release, SetWorkingSet
from repro.sim.units import MSEC

#: No victim-progress window may be empty of checkpoints.
PROGRESS_WINDOW_US = 250 * MSEC
#: Victim shape: a few small jobs checkpointing every short burst.
VICTIM_JOBS = 2
VICTIM_BURST_US = 5 * MSEC
VICTIM_WS_PAGES = 64
VICTIM_LOCK_HOLD_US = 50


@dataclass
class ChaosResult:
    """Everything one soak run produced."""

    plan: ChaosPlan
    #: Watchdog violations plus victim-progress violations, time-ordered.
    violations: List[Violation] = field(default_factory=list)
    #: Deterministic, time-ordered log of the whole run.
    journal: List[str] = field(default_factory=list)
    checkpoints: int = 0
    escalations: int = 0
    faults_applied: int = 0
    faults_skipped: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def victim_job(lock: KernelLock, rounds: int, tag: str) -> Behavior:
    """Short compute bursts, each followed by a checkpoint.

    The brief shared-lock section keeps the victim on the kernel-lock
    path (so a lock hogger is an actual antagonist for it) without
    making progress depend on anything an attacker can hold for long.
    """
    yield SetWorkingSet(pages=VICTIM_WS_PAGES)
    for i in range(rounds):
        yield Acquire(lock, shared=True)
        yield Compute(VICTIM_LOCK_HOLD_US)
        yield Release(lock)
        yield Compute(VICTIM_BURST_US)
        yield Checkpoint(f"{tag}.{i}")
    yield SetWorkingSet(pages=0)


def progress_violations(
    victim_procs: List, horizon_us: int, window_us: int = PROGRESS_WINDOW_US
) -> List[Violation]:
    """Flag every empty checkpoint window while the victim should move.

    ``window_us`` is the oracle's bound: no window of that many
    microseconds may pass without a single victim checkpoint.  The
    chaos soak uses the fixed :data:`PROGRESS_WINDOW_US`; the fuzzer
    scales the window per scheme (isolation schemes promise tighter
    bounds than sharing ones).
    """
    times = sorted(
        t for p in victim_procs for (_label, t) in p.checkpoints
    )
    # Stop checking once every victim job has exited (a finished victim
    # legitimately stops checkpointing).
    end = horizon_us
    if all(not p.alive for p in victim_procs):
        end = min(horizon_us, max(p.finished for p in victim_procs))
    violations = []
    cursor = 0
    for start in range(0, end - window_us + 1, window_us):
        stop = start + window_us
        while cursor < len(times) and times[cursor] < start:
            cursor += 1
        if cursor < len(times) and times[cursor] < stop:
            continue
        violations.append(
            Violation(
                stop,
                "victim-progress",
                f"no victim checkpoint in [{start}us, {stop}us)",
            )
        )
    return violations


def run_chaos(
    plan: ChaosPlan,
    scheme: Optional[SchemeConfig] = None,
    sabotage: Optional[Callable[[Kernel], None]] = None,
) -> ChaosResult:
    """Replay ``plan`` on the chaos machine and judge the outcome.

    ``sabotage`` is a test hook run right after boot — chaos tests use
    it to plant a deliberate kernel bug and prove the harness catches,
    reproduces, and shrinks it.  Production soaks leave it None.
    """
    scheme = scheme if scheme is not None else piso_scheme()
    config = MachineConfig(
        ncpus=CHAOS_NCPUS,
        memory_mb=CHAOS_MEMORY_MB,
        disks=[DiskSpec(geometry=fast_disk()) for _ in range(CHAOS_NDISKS)],
        scheme=scheme,
        seed=plan.seed,
    )
    kernel = Kernel(config)
    victim = kernel.create_spu("victim")
    attacker = kernel.create_spu("attacker")
    kernel.boot()
    if sabotage is not None:
        sabotage(kernel)

    lock = KernelLock("inode", reader_writer=True, inheritance=True)
    watchdog = InvariantWatchdog(kernel)
    watchdog.start()
    guard = OverloadGuard(
        kernel, pressure_threshold=40, throttle_after=2, kill_after=4
    )
    guard.start()
    injector = FaultInjector(kernel, plan.faults, on_error="skip")
    injector.arm()

    rounds = plan.horizon_us // (VICTIM_BURST_US + VICTIM_LOCK_HOLD_US)
    victim_procs = [
        kernel.spawn(victim_job(lock, rounds, f"v{j}"), victim, name=f"victim-{j}")
        for j in range(VICTIM_JOBS)
    ]

    launches: List[Tuple[int, str]] = []
    for i, burst in enumerate(plan.bursts):
        def fire(burst=burst, i=i) -> None:
            rng = random.Random(f"{plan.seed}/chaos/burst/{i}/{burst.kind}")
            procs = launch(
                kernel, attacker, burst.kind, rng, mount=0,
                shared_lock=lock, scale=burst.scale,
            )
            launches.append(
                (kernel.engine.now,
                 f"burst {i}: {burst.kind} x{len(procs)} (scale {burst.scale:g})")
            )
        kernel.engine.at(burst.at_us, fire, daemon=True)

    kernel.run(until=plan.horizon_us)

    violations = list(watchdog.violations)
    violations += progress_violations(victim_procs, plan.horizon_us)
    violations.sort(key=lambda v: (v.time_us, v.name))

    entries: List[Tuple[int, str]] = []
    entries += [(t, f"launch | {text}") for t, text in launches]
    entries += [(t, f"fault | {text}") for t, text in injector.applied]
    entries += [(t, f"fault-skipped | {text}") for t, text in injector.skipped]
    entries += [
        (e.time_us, f"guard | {e.stage} SPU {e.spu_id}: {e.detail}")
        for e in guard.escalations
    ]
    entries += [(v.time_us, f"VIOLATION | {v.name}: {v.detail}") for v in violations]
    entries.sort(key=lambda e: (e[0], e[1]))

    checkpoints = sum(len(p.checkpoints) for p in victim_procs)
    journal = [f"plan | seed={plan.seed} horizon={plan.horizon_us}us"
               f" bursts={len(plan.bursts)} faults={len(plan.faults)}"]
    journal += [f"t={t:>10} | {text}" for t, text in entries]
    journal.append(
        f"end | checkpoints={checkpoints}"
        f" escalations={len(guard.escalations)}"
        f" violations={len(violations)}"
    )

    return ChaosResult(
        plan=plan,
        violations=violations,
        journal=journal,
        checkpoints=checkpoints,
        escalations=len(guard.escalations),
        faults_applied=len(injector.applied),
        faults_skipped=len(injector.skipped),
    )


def _soak_cell(payload: Tuple[int, Optional[int], Optional[SchemeConfig]]) -> ChaosResult:
    """One (seed, horizon, scheme) soak — the sweep worker function."""
    seed, horizon_us, scheme = payload
    if horizon_us is not None:
        plan = generate_plan(seed, horizon_us=horizon_us)
    else:
        plan = generate_plan(seed)
    return run_chaos(plan, scheme=scheme)


def run_soak(
    seeds: List[int],
    horizon_us: Optional[int] = None,
    scheme: Optional[SchemeConfig] = None,
    max_workers: Optional[int] = 1,
    cache: bool = False,
    cache_dir: Optional[str] = None,
) -> List[ChaosResult]:
    """Generate and run one chaos plan per seed.

    Each seed's plan is independent and each run is a pure function of
    its plan (journals are byte-identical across replays), so seeds fan
    out across worker processes; results come back in seed order
    regardless of which worker finished first.  ``cache=True`` answers
    previously-soaked seeds from the content-addressed sweep cache
    (byte-identical journals, it stores the pure run's result).
    """
    from repro.parallel import Executor, SweepPlan, values

    plan = SweepPlan(max_workers=max_workers, cache=cache,
                     cache_dir=cache_dir)
    payloads = [(seed, horizon_us, scheme) for seed in seeds]
    return values(Executor(plan).run(_soak_cell, payloads))
