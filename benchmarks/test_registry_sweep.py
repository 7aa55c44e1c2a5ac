"""Registry-driven sweep bench: every quick experiment through the
uniform ``run(ExperimentSpec)`` entry point, timed one by one.

Unlike the per-figure benches (which call drivers directly and assert
the paper's numbers), this one exercises the path the runner and the
parallel executor use, and prints each experiment's rendered report.
"""

import os
import time

import pytest

from repro.api import ExperimentSpec, get, names, run_experiment
from repro.parallel import Executor, SweepPlan, WorkerPool, values

#: Smallest serial-over-4-worker speedup of the quick sweep accepted on
#: a host with at least four CPUs.
MIN_SPEEDUP = 1.2


@pytest.mark.parametrize("name", names(quick_only=True))
def test_registry_experiment(run_once, name):
    result = run_once(run_experiment, ExperimentSpec(name=name, seed=0))
    assert result.name == name
    assert result.records, f"experiment {name} exported no records"
    print()
    print(get(name).report(result.data))


def test_quick_sweep_matches_in_process_and_scales(run_once):
    payloads = [ExperimentSpec(name=name, seed=0)
                for name in names(quick_only=True)]
    start = time.perf_counter()
    serial = [run_experiment(p).canonical_json() for p in payloads]
    serial_s = time.perf_counter() - start

    with WorkerPool(max_workers=4) as pool:
        def sweep(workers):
            executor = Executor(SweepPlan(max_workers=workers), pool=pool)
            start = time.perf_counter()
            outcomes = executor.run(run_experiment, payloads)
            elapsed = time.perf_counter() - start
            return [r.canonical_json() for r in values(outcomes)], elapsed

        two, two_s = sweep(2)
        four, four_s = run_once(sweep, 4)
    assert two == serial, "2-worker sweep diverged from the in-process run"
    assert four == serial, "4-worker sweep diverged from the in-process run"

    speedup = serial_s / four_s
    print(f"\nserial {serial_s:.2f}s, 2 workers {two_s:.2f}s,"
          f" 4 workers {four_s:.2f}s ({speedup:.2f}x)")
    cpus = os.cpu_count() or 1
    if cpus < 4:
        pytest.skip(f"speedup floor not checked: host has {cpus} CPU(s),"
                    " fewer than the 4 workers measured")
    assert speedup >= MIN_SPEEDUP, (
        f"4-worker speedup {speedup:.2f}x is below {MIN_SPEEDUP}x"
    )
