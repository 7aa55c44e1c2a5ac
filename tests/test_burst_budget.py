"""The host cost of one interactive burst, held as a count of Python calls.

Wall time cannot gate CI, but the number of Python-level calls the
simulator makes per burst is exact: it repeats run to run and host to
host.  The workload is perfbench's ``tick_idle`` machine (4 CPUs,
32 MB, PIso, one interactive user per SPU), shortened to 2,000 bursts
per user.

Behaviours build their loop-invariant syscall ops once and yield the
same instances every burst (see :mod:`repro.kernel.syscalls`); the
differential test checks that this runs exactly like yielding fresh
ops.
"""

import sys

from repro.api import SimulationSpec, SpuSpec, build, piso_scheme
from repro.kernel.syscalls import Checkpoint, Compute, Sleep
from repro.metrics import to_records
from repro.sim.units import msecs
from repro.workloads import InteractiveParams, interactive_user

USERS = 4
BURSTS = 2000

#: Python calls per burst.  The burst path made 53 before its ops were
#: built once, the engine's push was inlined and the CPU pick was made
#: flat, and 32 after, on CPython 3.9 and 3.11 alike; 3.12 counts no
#: more.  The bound leaves two calls of slack.
MAX_CALLS_PER_BURST = 34


def tick_idle(behavior):
    """The tick_idle machine with one ``behavior`` user per SPU."""
    sim = build(SimulationSpec(
        ncpus=4,
        memory_mb=32,
        scheme=piso_scheme(),
        spus=[SpuSpec(f"user{i + 1}") for i in range(USERS)],
        disks=1,
        seed=0,
    ))
    params = InteractiveParams(bursts=BURSTS, think_ms=200.0, burst_ms=0.5)
    procs = [sim.spawn(behavior(params), spu, name=f"int{i}")
             for i, spu in enumerate(sim.spus)]
    return sim, procs


def fresh_ops_user(params):
    """:func:`interactive_user` with new op instances every burst."""
    for _ in range(params.bursts):
        yield Sleep(msecs(params.think_ms))
        yield Checkpoint("wake")
        yield Compute(msecs(params.burst_ms))
        yield Checkpoint("done")


def test_a_burst_stays_within_its_call_budget():
    sim, _ = tick_idle(interactive_user)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
    per_burst = calls / (USERS * BURSTS)
    assert per_burst <= MAX_CALLS_PER_BURST, f"{per_burst:.2f} calls per burst"


def test_reused_ops_run_like_fresh_ones():
    runs = []
    for behavior in (interactive_user, fresh_ops_user):
        sim, procs = tick_idle(behavior)
        events = sim.run()
        runs.append((
            events,
            to_records(sim.results()),
            [list(proc.checkpoints) for proc in procs],
        ))
    reused, fresh = runs
    assert len(reused[2][0]) == 2 * BURSTS
    assert reused == fresh
