"""Performance isolation under adversarial software.

PR 1 stressed the paper's isolation claim with failing hardware; this
experiment stresses it with *hostile neighbours*.  A latency-sensitive
victim SPU shares a machine with an attacker SPU running one antagonist
from :mod:`repro.antagonists` — a fork bomb, a memory bomb, a disk
flooder, a buffer-cache polluter, a kernel-lock hogger, or a metadata
storm.  The reference point is the victim alone on its contractual
share (half the CPUs, half the memory, the one disk).  The ratio

    victim response sharing with the antagonist
    -------------------------------------------
    victim response on its contract-share machine

is the price of a hostile neighbour.  Under PIso it should stay near
1.0 for *every* antagonist — that is the paper's claim, extended to
adversaries the original benchmarks never threw at it.  Under SMP the
fork bomb floods the global run queue, the memory bomb steals the
victim's pages through global replacement, and the disk flooder queues
megabytes ahead of every victim read.

All runs — including SMP — get the same hardened kernel: per-SPU
process limits, I/O admission control, and the
:class:`~repro.faults.OverloadGuard` escalation ladder.  The hardening
caps how *large* an antagonist can grow; the point of the experiment is
that resource partitioning, not the overload guard, is what protects
the victim's latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import random

from repro.antagonists import ANTAGONIST_KINDS, launch
from repro.api import SimulationSpec, build, experiment
from repro.core.schemes import SchemeConfig, piso_scheme, quota_scheme, smp_scheme
from repro.core.spu import SPU
from repro.faults import InvariantWatchdog, OverloadGuard
from repro.kernel.kernel import Kernel
from repro.kernel.locks import KernelLock
from repro.kernel.syscalls import (
    Acquire,
    Behavior,
    Compute,
    ReadFile,
    Release,
    SetWorkingSet,
)
from repro.sim.units import KB, MSEC, SEC, msecs


@dataclass(frozen=True)
class AntagonistScenario:
    """Machine shape and victim workload."""

    ncpus: int = 8
    memory_mb: int = 32
    victim_jobs: int = 6
    victim_rounds: int = 24
    victim_compute_ms: int = 25
    victim_read_kb: int = 8
    victim_read_every: int = 2
    victim_ws_pages: int = 512
    victim_lock_hold_us: int = 200
    antagonist_scale: float = 1.0
    #: Hard stop for a shared run even if the victim never finishes.
    horizon_us: int = 120 * SEC


DEFAULT_SCENARIO = AntagonistScenario()


def _schemes() -> List[Tuple[str, SchemeConfig]]:
    return [
        ("SMP", smp_scheme()),
        ("Quo", quota_scheme()),
        ("PIso", piso_scheme()),
    ]


def _victim_job(file, lock: KernelLock, scenario: AntagonistScenario) -> Behavior:
    """Compute + cold strided reads + brief shared-lock sections.

    The victim touches every resource path an antagonist attacks: it
    holds anonymous memory (the memory bomb's target), reads through
    the buffer cache and disk (the flooder's and polluter's), and takes
    the shared kernel lock in read mode (the hogger's).
    """
    nbytes = scenario.victim_read_kb * KB
    stride = 4 * nbytes
    yield SetWorkingSet(pages=scenario.victim_ws_pages)
    for i in range(scenario.victim_rounds):
        yield Acquire(lock, shared=True)
        yield Compute(scenario.victim_lock_hold_us)
        yield Release(lock)
        yield Compute(msecs(scenario.victim_compute_ms))
        if i % scenario.victim_read_every == 0:
            offset = (i * stride) % (file.size_bytes - nbytes)
            yield ReadFile(file, offset, nbytes)
    yield SetWorkingSet(pages=0)


@dataclass(frozen=True)
class OverloadStats:
    """What the hardened kernel did to the attacker during one run."""

    spawn_denials: int
    mem_denials: int
    io_throttled: int
    io_rejected: int
    oom_kills: int
    throttles: int
    guard_kills: int


@dataclass(frozen=True)
class AntagonistRow:
    """One (antagonist, scheme) cell of the comparison."""

    antagonist: str
    scheme: str
    victim_shared_s: float
    victim_solo_s: float
    #: shared / solo — 1.0 means the antagonist cost the victim nothing.
    slowdown: float
    overload: OverloadStats
    watchdog_checks: int
    violations: int


@dataclass(frozen=True)
class AntagonistIsolationResult:
    """The full antagonist x scheme matrix for one seed."""

    seed: int
    #: rows[antagonist][scheme]
    rows: Dict[str, Dict[str, AntagonistRow]]

    def records(self) -> List[AntagonistRow]:
        """Flat row list, ready for :mod:`repro.metrics.export`."""
        return [
            self.rows[kind][scheme]
            for kind in sorted(self.rows)
            for scheme in self.rows[kind]
        ]


def _make_victim(kernel: Kernel, victim: SPU, lock: KernelLock,
                 scenario: AntagonistScenario) -> List:
    procs = []
    nbytes = scenario.victim_read_kb * KB
    for j in range(scenario.victim_jobs):
        file = kernel.fs.create(0, f"victim-{j}", 16 * nbytes)
        procs.append(
            kernel.spawn(_victim_job(file, lock, scenario), victim,
                         name=f"victim-{j}")
        )
    return procs


def _run_until_victim_done(kernel: Kernel, victim_procs: List,
                           horizon_us: int) -> None:
    """Advance the simulation until the victim finishes (or the horizon).

    Antagonists may still be mid-rampage — fork bombs do not politely
    exit — so the run is stepped and abandoned once every victim
    process is done, rather than drained to quiescence.
    """
    step = 250 * MSEC
    while any(p.alive for p in victim_procs):
        target = min(kernel.engine.now + step, horizon_us)
        kernel.run(until=target)
        if kernel.engine.now >= horizon_us:
            break


def _mean_response_s(procs: List) -> float:
    done = [p for p in procs if not p.alive]
    if not done:
        return float("inf")
    return sum(p.response_us for p in done) / len(done) / 1e6


def run_shared(
    scheme: SchemeConfig,
    kind: str,
    scenario: AntagonistScenario = DEFAULT_SCENARIO,
    seed: int = 0,
) -> Tuple[float, OverloadStats, int, int]:
    """Victim + one antagonist on the shared machine.

    Returns (victim mean response seconds, overload stats, watchdog
    checks, violation count).
    """
    sim = build(SimulationSpec(
        ncpus=scenario.ncpus,
        memory_mb=scenario.memory_mb,
        scheme=scheme,
        spus=["victim", "attacker"],
        disks=1,
        seed=seed,
    ))
    kernel = sim.kernel
    victim = sim.spu("victim")
    attacker = sim.spu("attacker")

    lock = KernelLock("inode", reader_writer=True, inheritance=True)
    watchdog = InvariantWatchdog(kernel)
    watchdog.start()
    guard = OverloadGuard(kernel)
    guard.start()

    victim_procs = _make_victim(kernel, victim, lock, scenario)
    rng = random.Random(f"{seed}/antagonist/{kind}")
    launch(kernel, attacker, kind, rng, mount=0, shared_lock=lock,
           scale=scenario.antagonist_scale)

    _run_until_victim_done(kernel, victim_procs, scenario.horizon_us)

    spu_id = attacker.spu_id
    stats = OverloadStats(
        spawn_denials=kernel.spawn_denials.get(spu_id, 0),
        mem_denials=kernel.memory.total_denials.get(spu_id, 0),
        io_throttled=kernel.io_throttled.get(spu_id, 0),
        io_rejected=kernel.io_rejected.get(spu_id, 0),
        oom_kills=kernel.oom_kills.get(spu_id, 0),
        throttles=sum(1 for e in guard.escalations if e.stage == "throttle"),
        guard_kills=sum(1 for e in guard.escalations if e.stage == "kill"),
    )
    return (
        _mean_response_s(victim_procs),
        stats,
        watchdog.checks_run,
        len(watchdog.violations),
    )


def run_solo(
    scheme: SchemeConfig,
    scenario: AntagonistScenario = DEFAULT_SCENARIO,
    seed: int = 0,
) -> float:
    """The victim alone on its contract share: half CPUs, half memory."""
    sim = build(SimulationSpec(
        ncpus=scenario.ncpus // 2,
        memory_mb=scenario.memory_mb // 2,
        scheme=scheme,
        spus=["victim"],
        disks=1,
        seed=seed,
    ))
    lock = KernelLock("inode", reader_writer=True, inheritance=True)
    victim_procs = _make_victim(sim.kernel, sim.spu("victim"), lock, scenario)
    sim.run()
    return _mean_response_s(victim_procs)


def _render(result: AntagonistIsolationResult) -> str:
    from repro.metrics.report import format_table

    rows = []
    for row in result.records():
        rows.append(
            [
                row.antagonist,
                row.scheme,
                f"{row.victim_shared_s:.2f}",
                f"{row.victim_solo_s:.2f}",
                f"{row.slowdown:.2f}",
                row.overload.spawn_denials + row.overload.mem_denials
                + row.overload.io_throttled + row.overload.io_rejected,
                row.overload.throttles,
                row.overload.oom_kills + row.overload.guard_kills,
                row.violations,
            ]
        )
    return format_table(
        ["antagonist", "scheme", "shared s", "solo s", "slowdown",
         "pressure", "throttles", "kills", "violations"],
        rows,
        title="Antagonist isolation — victim slowdown next to an adversarial"
        " neighbour, vs its contract share (PIso should stay ~1.0;"
        " SMP collapses under fork/memory/disk bombs)",
    )


@experiment("antagonists", title="Antagonist isolation", render=_render)
def run_antagonist_isolation(
    scenario: AntagonistScenario = DEFAULT_SCENARIO,
    seed: int = 0,
    kinds: Optional[List[str]] = None,
) -> AntagonistIsolationResult:
    """The full matrix: every antagonist against every scheme."""
    kinds = list(kinds) if kinds is not None else list(ANTAGONIST_KINDS)
    solo: Dict[str, float] = {}
    rows: Dict[str, Dict[str, AntagonistRow]] = {}
    for kind in kinds:
        rows[kind] = {}
        for label, scheme in _schemes():
            if label not in solo:
                solo[label] = run_solo(scheme, scenario, seed=seed)
            shared_s, overload, checks, violations = run_shared(
                scheme, kind, scenario, seed=seed
            )
            rows[kind][label] = AntagonistRow(
                antagonist=kind,
                scheme=label,
                victim_shared_s=shared_s,
                victim_solo_s=solo[label],
                slowdown=shared_s / solo[label],
                overload=overload,
                watchdog_checks=checks,
                violations=violations,
            )
    return AntagonistIsolationResult(seed=seed, rows=rows)
