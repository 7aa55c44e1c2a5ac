"""Every registered experiment's output, and the smoke fleet's, pinned.

The canonical records of each (experiment, seed) cell must hash to the
sha256 that ``perfbench/expected.json`` pins; the benchmark checks its
own passes against the same file.  So must the benchmark's one
non-experiment cell, ``tick_idle`` (four interactive users under PIso),
whose event count is pinned there too.  A change that moves any
simulated number fails here.  Re-pin on purpose with
``python -m perfbench --update-expected 0-31``, so the new digests show
in review.  The smoke fleet is not a benchmark cell, so its journal
digests are pinned here as constants; re-pin those by hand.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import (
    ExperimentSpec,
    SimulationSpec,
    SpuSpec,
    build,
    names,
    piso_scheme,
    run_experiment,
)
from repro.fleet.__main__ import smoke_spec
from repro.fleet.runner import run_fleet_record
from repro.metrics import to_records
from repro.workloads import InteractiveParams, interactive_user

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
PINS = json.loads(EXPECTED.read_text(encoding="utf-8"))["seeds"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", names())
def test_output_matches_the_pin(name, seed):
    text = run_experiment(ExperimentSpec(name=name, seed=seed)).canonical_json()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINS[str(seed)][name]["sha256"]


@pytest.mark.parametrize("seed", [0, 1])
def test_tick_idle_matches_the_pin(seed):
    # The simulation perfbench's tick_idle cell runs: four users of
    # 20,000 bursts (200 ms think, 0.5 ms compute) on a 4-CPU PIso box.
    sim = build(SimulationSpec(
        ncpus=4,
        memory_mb=32,
        scheme=piso_scheme(),
        spus=[SpuSpec(f"user{i + 1}") for i in range(4)],
        disks=1,
        seed=seed,
    ))
    params = InteractiveParams(bursts=20000, think_ms=200.0, burst_ms=0.5)
    for i, spu in enumerate(sim.spus):
        sim.spawn(interactive_user(params), spu, name=f"int{i}")
    events = sim.run()
    text = json.dumps(to_records(sim.results()), sort_keys=True)
    pin = PINS[str(seed)]["tick_idle"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pin["sha256"]
    assert events == pin["events"]


#: ``run_fleet_record(smoke_spec(scheme, seed).to_dict())["digest"]``.
FLEET_PINS = {
    ("smp", 0): "b18d2b8dbf9c4cd0",
    ("smp", 1): "72235bc5fee1fcbd",
    ("piso", 0): "07b824d3e045cee9",
    ("piso", 1): "597bb068dc557734",
}


@pytest.mark.parametrize("scheme, seed", sorted(FLEET_PINS))
def test_smoke_fleet_matches_the_pin(scheme, seed):
    record = run_fleet_record(smoke_spec(scheme=scheme, seed=seed).to_dict())
    assert record["digest"] == FLEET_PINS[scheme, seed]
