"""The memory daemon's gate changes nothing: gated against ungated runs.

The daemon's timer skips a pass while the daemon is settled.  The
ungated oracle here patches the timer callback to run the full pass
every period instead; ``src`` has no switch for it.  Every run below is
made both ways.  At every
daemon firing both must hold the same (entitled, allowed, used) for
every SPU and the same loans, and at the end the same journal digest
and the same event count.  The runs reach paths no experiment does:
memory loss in the fuzz corpus, goal control re-weighting an adaptive
contract, and SPUs added, suspended, resumed and retired mid-run.
"""

import hashlib

import pytest

from repro.chaos import generate_plan, run_chaos
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
KERNEL_RUN = Kernel.run


def traced(run, gated):
    """``run()``'s outcome, event counts, and the books at each firing.

    Also returns how many firings found the daemon settled, which the
    gated side skips.
    """
    callback = GATED if gated else UNGATED
    firings = []
    events = []
    settled = 0

    def fire(daemon):
        nonlocal settled
        settled += daemon.settled
        callback(daemon)
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
        mp.setattr(Kernel, "run", counted_run)
        outcome = run()
    return (outcome, events, firings), settled


def assert_gate_changes_nothing(run):
    """Returns the number of passes the gate skipped."""
    gated, skipped = traced(run, gated=True)
    ungated, _ = traced(run, gated=False)
    assert gated == ungated
    return skipped


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

    assert_gate_changes_nothing(run)


@pytest.mark.parametrize("seed", range(5))
def test_chaos_soak(seed):
    plan = generate_plan(seed, horizon_us=1500 * MSEC)

    def run():
        return digest(run_chaos(plan).journal)

    assert_gate_changes_nothing(run)


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

    assert assert_gate_changes_nothing(run) > 0


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

    assert assert_gate_changes_nothing(run) > 0
