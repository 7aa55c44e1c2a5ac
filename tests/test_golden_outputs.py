"""Every registered experiment's output, pinned.

The canonical records of each (experiment, seed) cell must hash to the
sha256 that ``perfbench/expected.json`` pins; the benchmark checks its
own passes against the same file.  A change that moves any simulated
number fails here.  Re-pin on purpose with
``python -m perfbench --update-expected 0-31``, so the new digests show
in review.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, names, run_experiment

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
PINS = json.loads(EXPECTED.read_text(encoding="utf-8"))["seeds"]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", names())
def test_output_matches_the_pin(name, seed):
    text = run_experiment(ExperimentSpec(name=name, seed=seed)).canonical_json()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PINS[str(seed)][name]["sha256"]
