"""Self-tests of the benchmark: ``python -m pytest perfbench -q``.

Each workload runs one small pass in this process, traced and
untraced: ``fs_copy`` and ``batch_mix`` at full size, ``tick_idle``
with fewer bursts, ``sweep`` over three cheap experiments.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.catalogue import END_TO_END, EXPERIMENTS, FROM_PARENT, PER_LAYER
from perfbench.child import traced_passes, untraced_passes
from perfbench.parent import EXPECTED, ROOT
from perfbench.trace import PROBES, Tracer, repro_modules
from perfbench.workloads import WORKLOADS, Session

SMALL_SWEEP = ["fig5", "table4", "fleet_isolation"]

#: Aggregates each workload must reach.  A zero count means a probe no
#: longer sits where the callers look the function up.
REACHED = {
    "fs_copy": {
        "sim.run", "sim.schedule", "api.build", "metrics.to_records",
        "kernel.init", "kernel.spawn", "cpu.pick", "cpu.queue", "cpu.other",
        "cpu.priority", "core.levels", "core.counter", "core.account",
        "mem.alloc", "mem.free", "fs.read", "fs.write",
        "fs.other", "fs.readahead", "fs.cache.lookup", "fs.cache.insert",
        "fs.cache.evict", "fs.cache.dirty_scan", "fs.cache.other",
        "fs.writeback", "disk.submit", "disk.select", "disk.service",
        "disk.ledger",
    },
    "tick_idle": {
        "sim.run", "sim.schedule", "api.build", "metrics.to_records",
        "kernel.spawn", "cpu.pick", "cpu.queue", "cpu.revocations",
        "cpu.partition_tick", "cpu.priority", "core.levels", "mem.alloc",
        "mem.rebalance", "mem.other", "fs.cache.dirty_scan",
    },
    "batch_mix": {
        "kernel.kill", "mem.other", "mem.workingset", "net.send",
        "net.select", "net.ledger", "cpu.revocations", "cpu.partition_tick",
        "mem.rebalance",
    },
    "sweep": {
        "parallel.run", "parallel.cache.key", "parallel.cache.get",
        "parallel.cache.put",
    },
}

#: Probes no registered experiment reaches, each with the reason; the
#: test below calls them directly to show the wrapper is live.
NOT_EXERCISED = {
    "sim.step": "the experiments drive the engine through Engine.run only",
    "mem.transfer": "no experiment touches one cached block from two SPUs",
    "mem.pageout": "no experiment's scheme enables proactive pageout",
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: (untraced passes, traced result)."""
    out = {}
    for workload in WORKLOADS:
        session = Session(workload, seed=0,
                          cells=SMALL_SWEEP if workload == "sweep" else None)
        if workload == "tick_idle":
            session.tick_bursts = 300
        try:
            cache = str(tmp_path_factory.mktemp(workload))
            untraced = untraced_passes(session, "run", cache)
            if workload == "sweep":
                untraced += untraced_passes(session, "warm", cache)
            traced = traced_passes(
                session, str(tmp_path_factory.mktemp(workload + "-traced")))
        finally:
            session.close()
        out[workload] = (untraced, traced)
    return out


def _calls(traced, name):
    agg = traced["trace"]["aggregates"].get(name)
    return agg["calls"] if agg else 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_probe_is_reached_where_it_should_be(runs, workload):
    _, traced = runs[workload]
    assert traced["trace"]["missing"] == []
    unreached = sorted(n for n in REACHED[workload] if _calls(traced, n) == 0)
    assert unreached == []


def test_every_probe_is_reached_somewhere_or_explained(runs):
    reached = {name for _, traced in runs.values()
               for name, agg in traced["trace"]["aggregates"].items()
               if agg["calls"]}
    probed = {probe.agg for probe in PROBES}
    assert probed - reached == set(NOT_EXERCISED)


def test_unexercised_probes_count_direct_calls():
    import dataclasses

    from repro.api import SimulationSpec, build, smp_scheme

    params = dataclasses.replace(smp_scheme().params, proactive_pageout=True)
    with Tracer() as tracer:
        sim = build(SimulationSpec(ncpus=1, memory_mb=8,
                                   scheme=smp_scheme(params), spus=["a", "b"]))
        assert sim.engine.step()
        sim.engine.run(until=1_000_000)
        a, b = (spu.spu_id for spu in sim.spus)
        assert sim.kernel.memory.try_allocate(a)
        assert sim.kernel.memory.transfer(a, b)
    assert tracer.aggs["sim.step"].calls == 1
    assert tracer.aggs["mem.pageout"].calls >= 1
    assert tracer.aggs["mem.transfer"].calls == 1


def test_bypass_predictions_hold_exactly(runs):
    tick = runs["tick_idle"][1]["layer"]
    assert tick["fs.cache.insert.calls"] == 0
    assert tick["fs.cache.lookup.calls"] == 0
    assert tick["fs.cache.evict.calls"] == 0
    assert tick["net.send.calls"] == 0
    assert runs["fs_copy"][1]["layer"]["net.send.calls"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_equal_untraced_outputs(runs, workload):
    untraced, traced = runs[workload]
    reference = untraced[0]["cells"]
    for record in untraced[1:] + traced["passes"]:
        assert {n: c["sha256"] for n, c in record["cells"].items()} == \
            {n: c["sha256"] for n, c in reference.items()}
        for name, cell in record["cells"].items():
            if None not in (cell["events"], reference[name]["events"]):
                assert cell["events"] == reference[name]["events"]


@pytest.mark.parametrize("workload", ["fs_copy", "batch_mix"])
def test_full_size_passes_match_the_pins(runs, workload):
    with open(EXPECTED) as fh:
        pins = json.load(fh)["seeds"]["0"]
    for record in runs[workload][0] + runs[workload][1]["passes"]:
        for name, cell in record["cells"].items():
            assert cell["sha256"] == pins[name]["sha256"], name
            assert cell["events"] == pins[name]["events"], name


def _function_attributes():
    """Every function-valued attribute of every repro module and class."""
    out = {}
    for module in repro_modules():
        for name, value in vars(module).items():
            if inspect.isfunction(value):
                out[(module.__name__, name)] = value
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if inspect.isfunction(member):
                        out[(module.__name__, name, attr)] = member
    return out


def test_patched_attributes_are_restored_after_a_traced_pass(tmp_path):
    session = Session("tick_idle", seed=0)
    session.tick_bursts = 50
    before = _function_attributes()
    try:
        traced = traced_passes(session, str(tmp_path))
    finally:
        session.close()
    assert traced["layer"]["cpu.pick.calls"] > 0
    after = _function_attributes()
    assert before.keys() == after.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_the_pass(runs, workload):
    trace = runs[workload][1]["trace"]
    passes = trace["aggregates"]["pass"]["incl_s"]
    assert sum(trace["layer_self_s"].values()) == pytest.approx(passes, rel=0.01)


def test_the_trace_agrees_with_the_profile(runs):
    """fs_copy is the buffer cache; tick_idle is the engine and scheduler."""
    fs_copy = runs["fs_copy"][1]["trace"]
    assert fs_copy["layer_self_s"]["fs"] >= \
        0.8 * fs_copy["aggregates"]["pass"]["incl_s"]
    tick = runs["tick_idle"][1]["trace"]
    idle_layers = sum(tick["layer_self_s"].get(layer, 0.0)
                      for layer in ("sim", "cpu", "core", "mem"))
    assert idle_layers > 0.5 * tick["aggregates"]["pass"]["incl_s"]


def test_catalogue_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_layer_metrics_cover_the_catalogue(runs):
    names = set(runs["fs_copy"][1]["layer"]) | set(FROM_PARENT)
    assert names == {name for name, _ in PER_LAYER}


def test_pins_cover_every_cell_for_seeds_0_and_1():
    from repro.api import names

    assert set(EXPERIMENTS) == set(names())
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    for seed in ("0", "1"):
        assert set(expected["seeds"][seed]) == set(names()) | {"tick_idle"}
    for workload in WORKLOADS:
        assert workload in expected["wall_s"]
        assert f"{workload}.warm" in expected["wall_s"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tick_idle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
