"""Differential determinism: idle fast-forward on vs off, and queue order.

Idle fast-forward is a pure performance feature — every experiment
must produce *byte-identical* results with it on or off.  These tests
run real experiments both ways and compare canonical JSON, run
perfbench's mostly idle ``tick_idle`` machine both ways and compare
its records and event count, and add engine-level ordering regressions
for the packed event heap.

The golden gate (``tests/test_golden_outputs.py``) and the corpus pins
(``tests/test_golden_corpus.py``) are the whole-run proof of queue
order: they pin every experiment, fuzz, fleet-fuzz and chaos run
byte for byte.
"""

import json

import pytest

import repro.sim.engine as engine_mod
from repro.api import (
    ExperimentSpec,
    SimulationSpec,
    SpuSpec,
    build,
    piso_scheme,
    run_experiment,
)
from repro.metrics import to_records
from repro.sim.engine import Engine
from repro.workloads import InteractiveParams, interactive_user

#: Experiments exercising CPU, memory, disk, and network subsystems.
SECTIONS = ("fig5", "table4", "network")
SEEDS = (0, 1)
#: Bursts per user on the tick_idle machine: enough for the run to
#: spend most of its time in ticks that fast-forward elides.
TICK_IDLE_BURSTS = 300


def _canonical(section: str, seed: int) -> str:
    return run_experiment(ExperimentSpec(name=section, seed=seed)).canonical_json()


@pytest.fixture(scope="module")
def reference():
    """Canonical JSON per (section, seed) with fast-forward enabled."""
    assert engine_mod.DEFAULT_FAST_FORWARD
    return {
        (section, seed): _canonical(section, seed)
        for section in SECTIONS
        for seed in SEEDS
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("section", SECTIONS)
def test_experiments_byte_identical_without_fast_forward(
    section, seed, reference, monkeypatch
):
    monkeypatch.setattr(engine_mod, "DEFAULT_FAST_FORWARD", False)
    got = _canonical(section, seed)
    assert got == reference[(section, seed)], (
        f"{section} seed {seed} diverged without fast-forward"
    )


def _tick_idle(seed: int):
    """perfbench's ``tick_idle`` machine: four interactive users under
    PIso on 4 CPUs and 32 MB.  Returns its records and event count."""
    sim = build(SimulationSpec(
        ncpus=4,
        memory_mb=32,
        scheme=piso_scheme(),
        spus=[SpuSpec(f"user{i + 1}") for i in range(4)],
        disks=1,
        seed=seed,
    ))
    params = InteractiveParams(bursts=TICK_IDLE_BURSTS, think_ms=200.0,
                               burst_ms=0.5)
    for i, spu in enumerate(sim.spus):
        sim.spawn(interactive_user(params), spu, name=f"int{i}")
    events = sim.run()
    return json.dumps(to_records(sim.results()), sort_keys=True), events


@pytest.mark.parametrize("seed", SEEDS)
def test_tick_idle_identical_without_fast_forward(seed, monkeypatch):
    assert engine_mod.DEFAULT_FAST_FORWARD
    fast = _tick_idle(seed)
    monkeypatch.setattr(engine_mod, "DEFAULT_FAST_FORWARD", False)
    assert _tick_idle(seed) == fast, (
        f"tick_idle seed {seed} diverged without fast-forward"
    )


# --- engine-level ordering regressions -------------------------------------


def test_same_tick_fifo_across_event_kinds():
    """Packed calls, handles, and timer fires at one time run in
    schedule order, whatever mix of kinds is involved."""
    eng, trace = Engine(seed=0), []
    eng.call_at(100, trace.append, "call-first")
    eng.at(100, trace.append, "handle-second")
    timer = eng.every(100, trace.append, "timer-third", start=100)
    eng.call_at(100, trace.append, "call-fourth")
    eng.run(until=100)
    timer.stop()
    assert trace == ["call-first", "handle-second", "timer-third",
                     "call-fourth"]


def test_same_tick_fifo_for_events_scheduled_during_dispatch():
    """Events scheduled *while dispatching* the current time run after
    everything already queued at that time, in schedule order."""
    eng, trace = Engine(seed=0), []

    def first():
        trace.append("first")
        eng.call_after(0, trace.append, "nested-a")
        eng.call_after(0, trace.append, "nested-b")

    eng.call_at(50, first)
    eng.call_at(50, trace.append, "second")
    eng.run()
    assert trace == ["first", "second", "nested-a", "nested-b"]


def test_fifo_across_neighbouring_instants():
    """Events one microsecond apart, two per instant, run in
    (time, schedule-order)."""
    eng, trace = Engine(seed=0), []
    base = 1000
    for t in (base - 1, base, base + 1):
        eng.call_at(t, trace.append, f"{t}-a")
        eng.call_at(t, trace.append, f"{t}-b")
    eng.run()
    assert trace == [
        f"{base - 1}-a", f"{base - 1}-b",
        f"{base}-a", f"{base}-b",
        f"{base + 1}-a", f"{base + 1}-b",
    ]


def test_fifo_far_future_events_scheduled_out_of_order():
    """Events scheduled out of time order, far apart and with repeated
    instants, come back in (time, schedule-order)."""
    eng, trace = Engine(seed=0), []
    times = [5, (3 << 16) + 7, (1 << 16), 12, (7 << 16) + 1, (3 << 16) + 7]
    for i, t in enumerate(times):
        eng.call_at(t, trace.append, (t, i))
    eng.run()
    assert trace == sorted(trace, key=lambda e: (e[0], e[1]))
    assert len(trace) == len(times)


def test_timer_fire_and_same_tick_call_order():
    """A periodic timer's next occurrence is scheduled when it fires, so
    a call_at() for the next tick made *before* boot still runs first."""
    eng, trace = Engine(seed=0), []
    eng.every(10, trace.append, "timer", start=10)
    eng.call_at(20, trace.append, "call-at-20")
    eng.run(until=20)
    assert trace == ["timer", "call-at-20", "timer"]


def test_fast_forward_lands_on_exact_occurrence_grid():
    """Elided occurrences land the timer exactly on its period grid and
    count as executed events."""
    eng = Engine(seed=0)
    fires = []
    skips = []
    eng.set_idle_probe(lambda: True)
    eng.every(10, lambda: fires.append(eng.now), start=10,
              skip_fn=skips.append)
    eng.call_at(1005, lambda: None)
    executed = eng.run(until=1005)
    # Ticks 10..1000 were elided in bulk; the landing occurrence fires
    # on the grid at or before the next real event.
    assert sum(skips) > 0
    assert all(t % 10 == 0 for t in fires)
    assert executed == sum(skips) + len(fires) + 1


def test_fast_forward_never_elides_same_tick_work():
    """An event at the timer's own fire time always runs; fast-forward
    only jumps across *strictly* idle gaps."""
    eng = Engine(seed=0)
    trace = []
    eng.set_idle_probe(lambda: True)
    eng.every(10, lambda: trace.append(("tick", eng.now)), start=10,
              skip_fn=lambda k: trace.append(("skip", k)))
    eng.call_at(10, lambda: trace.append(("call", 10)))
    eng.run(until=10)
    assert ("tick", 10) in trace
    assert ("call", 10) in trace
    assert not any(kind == "skip" for kind, _ in trace)
