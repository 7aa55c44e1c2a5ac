"""Pins for the paths no experiment reaches: fuzz, fleet fuzz, chaos
and the examples.

``test_golden_outputs.py`` pins the ten experiments and the smoke
fleet, but none of them decommissions memory, runs goal control,
schedules gangs, or recovers or partitions a fleet.  The fuzz corpus,
the chaos soak and the examples do.  Each fuzz or chaos cell below is
a pure function of its seed and horizon; its digest (and event count,
where the record has one) is pinned in ``golden_corpus.json``.  The
sha256 of CI's chaos soak stdout (seeds 0–19 at 3000 ms, run
in-process) is pinned too.  Each example other than
``reproduce_paper.py`` is run as its own process, as CI runs it, and
the sha256 of its stdout is pinned.  Re-pin on
purpose, so the new pins show in review, with

    PYTHONPATH=src python -m tests.test_golden_corpus --update
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main as repro_main
from repro.chaos import generate_plan
from repro.fuzz.fleet import run_fleet_fuzz_record
from repro.fuzz.generate import generate_scenario
from repro.fuzz.runner import run_record, run_scenario
from repro.sim.units import MSEC

PINS_PATH = Path(__file__).resolve().with_name("golden_corpus.json")
ROOT = PINS_PATH.parent.parent

FUZZ_SEEDS = range(20)
FUZZ_HORIZON_MS = 800
FLEET_FUZZ_SEEDS = range(10)
FLEET_FUZZ_HORIZON_MS = 300
CHAOS_SEEDS = range(5)
CHAOS_HORIZON_MS = 1500
#: CI's chaos soak: these seeds at the horizons below.
SOAK_SEEDS = range(20)
SOAK_HORIZONS_MS = (3000,)
#: Every example but ``reproduce_paper.py``, which runs the experiments
#: that ``test_golden_outputs.py`` already pins.
EXAMPLES = (
    "capacity_planning", "department_server", "elastic_server",
    "failing_hardware", "noisy_neighbor", "parallel_apps", "quickstart",
    "service_goals",
)


def fuzz_cell(seed: int) -> dict:
    """``repro fuzz --seed S --count 1 --horizon-ms 800``'s record."""
    scenario = generate_scenario(seed, horizon_us=FUZZ_HORIZON_MS * MSEC)
    record = run_record(scenario, simsan=False)
    return {"digest": record["digest"], "events": record["events"]}


def fleet_fuzz_cell(seed: int) -> dict:
    """``repro fuzz --fleet --seed S --count 1 --horizon-ms 300``'s record."""
    record = run_fleet_fuzz_record(
        seed, horizon_us=FLEET_FUZZ_HORIZON_MS * MSEC, simsan=False
    )
    return {"digest": record["digest"], "events": record["events"]}


def chaos_cell(seed: int) -> dict:
    """The digest of one chaos soak's journal."""
    result = run_scenario(
        generate_plan(seed, horizon_us=CHAOS_HORIZON_MS * MSEC)
    )
    text = "\n".join(result.journal)
    return {"digest": hashlib.sha256(text.encode()).hexdigest()[:16]}


def chaos_soak_cell(horizon_ms: int) -> dict:
    """The sha256 of ``repro chaos --seeds 0 … 19 --horizon-ms H``'s stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        repro_main([
            "chaos", "--seeds", *map(str, SOAK_SEEDS),
            "--horizon-ms", str(horizon_ms), "--repro", os.devnull,
        ])
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def example_cell(name: str) -> dict:
    """The sha256 of ``PYTHONPATH=src python examples/<name>.py``'s stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    stdout = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, check=True,
    ).stdout
    return {"sha256": hashlib.sha256(stdout).hexdigest()}


CELLS = {
    "fuzz": (fuzz_cell, FUZZ_SEEDS),
    "fleet_fuzz": (fleet_fuzz_cell, FLEET_FUZZ_SEEDS),
    "chaos": (chaos_cell, CHAOS_SEEDS),
    "chaos_soak": (chaos_soak_cell, SOAK_HORIZONS_MS),
    "examples": (example_cell, EXAMPLES),
}


def compute_pins() -> dict:
    return {
        kind: {str(seed): cell(seed) for seed in seeds}
        for kind, (cell, seeds) in CELLS.items()
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "kind, seed",
    [(kind, seed) for kind, (_, seeds) in CELLS.items() for seed in seeds],
)
def test_cell_matches_the_pin(pins, kind, seed):
    cell, _ = CELLS[kind]
    assert cell(seed) == pins[kind][str(seed)]


def main(argv) -> int:
    if argv != ["--update"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    text = json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n"
    PINS_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {PINS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
