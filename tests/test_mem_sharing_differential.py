"""The memory daemon against two oracles: its gate and its loan pool.

The daemon's timer skips a pass while the daemon is settled.  The
ungated oracle patches the timer callback to run the full pass every
period instead; ``src`` has no switch for it.

A lending pass lends the free pages beyond the Reserve Threshold.  The
capped oracle patches ``_share_idle`` to the formula it replaced, which
also capped that pool at the lenders' summed unused entitlement
(``capped_share_idle``, a test-only reference).  The cap never binds, as
the daemon's comment derives, so the two must agree.

Every run below is made three ways: as it is, ungated and capped.  At
every daemon firing each oracle must hold the same (entitled, allowed,
used) for every SPU and the same loans as the run as it is, and at the
end the same journal digest and the same event count.  The runs reach
paths no experiment does: memory loss in the fuzz corpus, goal control
re-weighting an adaptive contract, and SPUs added, suspended, resumed
and retired mid-run.
"""

import hashlib

import pytest

from repro.chaos import generate_plan
from repro.core import (
    AdaptiveContract,
    EqualShareContract,
    GoalManager,
    VelocityGoal,
    piso_scheme,
)
from repro.disk.model import fast_disk
from repro.fuzz.generate import generate_scenario
from repro.fuzz.runner import run_scenario
from repro.kernel import Compute, DiskSpec, Kernel, MachineConfig, SetWorkingSet
from repro.mem import MemorySharingDaemon
from repro.sim.units import MSEC, msecs

GATED = MemorySharingDaemon._periodic
UNGATED = MemorySharingDaemon.rebalance
SHARE_IDLE = MemorySharingDaemon._share_idle
KERNEL_RUN = Kernel.run


def capped_share_idle(daemon, users, denials):
    """``_share_idle`` with the lenders' cap on the loan pool (test-only).

    The pool is ``min(sum(max(0, entitled - used)), max(0, free -
    reserve))``; the rest of the pass is a copy of the daemon's.
    """
    pressured = [s for s in users if denials.get(s.spu_id, 0) > 0]
    willing = sum(max(0, s.memory().entitled - s.memory().used) for s in users)
    manager = daemon.manager
    excess = min(willing, max(0, manager.free_pages - manager.reserve_pages))
    for spu in users:
        levels = spu.memory()
        levels.set_allowed(max(levels.entitled, levels.used))
    if excess <= 0 or not pressured:
        return
    total_denials = sum(denials[s.spu_id] for s in pressured)
    for spu in pressured:
        share = round(excess * denials[spu.spu_id] / total_denials)
        if share <= 0:
            continue
        levels = spu.memory()
        levels.set_allowed(levels.allowed + share)


def traced(run, periodic=GATED, share_idle=SHARE_IDLE):
    """``run()``'s outcome, event counts, and the books at each firing.

    Also returns how many firings found the daemon settled, which the
    gated side skips.
    """
    firings = []
    events = []
    settled = 0

    def fire(daemon):
        nonlocal settled
        settled += daemon.settled
        periodic(daemon)
        books = [
            (s.spu_id, s.memory().entitled, s.memory().allowed, s.memory().used)
            for s in daemon.registry.all_spus()
        ]
        firings.append((daemon.engine.now, books, sorted(daemon.loans.items())))

    def counted_run(kernel, *args, **kwargs):
        executed = KERNEL_RUN(kernel, *args, **kwargs)
        events.append(executed)
        return executed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MemorySharingDaemon, "_periodic", fire)
        mp.setattr(MemorySharingDaemon, "_share_idle", share_idle)
        mp.setattr(Kernel, "run", counted_run)
        outcome = run()
    return (outcome, events, firings), settled


def assert_oracles_agree(run):
    """Returns the passes the gate skipped and the firings with loans."""
    subject, skipped = traced(run)
    ungated, _ = traced(run, periodic=UNGATED)
    assert subject == ungated
    capped, _ = traced(run, share_idle=capped_share_idle)
    assert subject == capped
    firings = subject[2]
    return skipped, sum(1 for _, _, loans in firings if loans)


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def kernel_journal(kernel):
    """What a custom run did: every process's fate and CPU time."""
    return digest(
        f"{pid} {p.name} spu={p.spu_id} finished={p.finished}"
        f" cpu={p.cpu_time_us} faults={p.fault_count}"
        for pid, p in sorted(kernel.processes.items())
    )


def hungry(pages, ms):
    yield SetWorkingSet(pages, touches_per_ms=20.0)
    for _ in range(ms // 10):
        yield Compute(msecs(10))


def machine(contract):
    return Kernel(MachineConfig(
        ncpus=2, memory_mb=16, disks=[DiskSpec(geometry=fast_disk())],
        scheme=piso_scheme(), contract=contract, seed=3,
    ))


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_cell(seed):
    scenario = generate_scenario(seed, horizon_us=800 * MSEC)

    def run():
        result = run_scenario(scenario, simsan=False)
        return result.digest(), result.events

    assert_oracles_agree(run)


@pytest.mark.parametrize("seed", range(5))
def test_chaos_soak(seed):
    plan = generate_plan(seed, horizon_us=1500 * MSEC)

    def run():
        return digest(run_scenario(plan).journal)

    assert_oracles_agree(run)


def test_goal_control_reweighting_an_adaptive_contract():
    def run():
        kernel = machine(AdaptiveContract())
        a = kernel.create_spu("a")
        b = kernel.create_spu("b")
        kernel.boot()
        goals = GoalManager(kernel, period=100 * MSEC)
        goals.set_goal(a, VelocityGoal(target=0.9))
        goals.start()
        for spu in (a, b):
            for _ in range(3):
                kernel.spawn(hungry(700, 900), spu)
        kernel.run(until=1500 * MSEC)
        weights = [goals.contract.weight_of(n) for n in "ab"]
        return kernel_journal(kernel), weights, len(goals.history)

    skipped, lending = assert_oracles_agree(run)
    assert skipped > 0 and lending > 0


def test_spus_added_suspended_resumed_and_retired():
    def run():
        kernel = machine(EqualShareContract())
        a = kernel.create_spu("a")
        b = kernel.create_spu("b")
        idle = kernel.create_spu("idle")
        kernel.boot()
        for _ in range(2):
            kernel.spawn(hungry(900, 1200), a)
        kernel.spawn(hungry(1200, 300), b)

        def arrive():
            late = kernel.add_spu("late")
            for _ in range(2):
                kernel.spawn(hungry(800, 500), late)

        def suspend_b_when_done():
            if not b.pids:
                kernel.suspend_spu(b)

        at = kernel.engine.at
        at(150 * MSEC, kernel.suspend_spu, idle)
        at(250 * MSEC, arrive)
        at(450 * MSEC, kernel.resume_spu, idle)
        at(650 * MSEC, kernel.retire_spu, idle)
        at(900 * MSEC, suspend_b_when_done)
        kernel.run(until=1500 * MSEC)
        states = [s.state.value for s in (a, b, idle)]
        return kernel_journal(kernel), states, kernel.renegotiations

    skipped, lending = assert_oracles_agree(run)
    assert skipped > 0 and lending > 0
