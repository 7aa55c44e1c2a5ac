"""The scenario runner and its oracle stack, including the planted bug."""

import pytest

from repro.chaos import generate_plan
from repro.faults.plan import FaultPlan
from repro.fuzz.runner import (
    ENV_PLANT,
    SCHEME_PROGRESS_DIVISOR,
    run_record,
    run_scenario,
)
from repro.fuzz.scenario import (
    SCHEMES,
    AntagonistBurst,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.sim.units import MSEC


def scenario_with(**overrides):
    fields = dict(
        seed=5, ncpus=2, memory_mb=16, ndisks=1, scheme="piso",
        horizon_us=400 * MSEC,
        workloads=[WorkloadSpec(kind="cpu_hog", spu="load0")],
        bursts=[],
        faults=FaultPlan(),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def planted_inputs():
    """A fuzz scenario and a chaos plan: the oracles judge both."""
    return [scenario_with(), generate_plan(5, horizon_us=400 * MSEC)]


class TestCleanRuns:
    def test_clean_scenario_is_ok_and_makes_progress(self):
        result = run_scenario(scenario_with())
        assert result.ok
        assert result.verdict == "ok"
        assert result.checkpoints > 0
        assert result.events > 0
        assert result.journal[0].startswith("scenario | seed=5")

    def test_journal_is_deterministic(self):
        a = run_scenario(scenario_with())
        b = run_scenario(scenario_with())
        assert a.journal == b.journal
        assert a.digest() == b.digest()

    def test_run_record_is_a_pure_function(self):
        a = run_record(scenario_with())
        b = run_record(scenario_with())
        assert a == b
        assert a["verdict"] == "ok"
        assert a["violations"] == []
        assert a["digest"]

    def test_every_scheme_has_a_progress_policy(self):
        assert set(SCHEME_PROGRESS_DIVISOR) == set(SCHEMES)

    def test_all_schemes_run_clean_without_antagonists(self):
        for scheme in SCHEMES:
            result = run_scenario(scenario_with(scheme=scheme))
            assert result.ok, (scheme, result.violations)


class TestPlantedBug:
    def test_page_leak_is_caught_by_the_watchdog(self, monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        for scenario in planted_inputs():
            result = run_scenario(scenario)
            assert not result.ok
            assert {v.name for v in result.violations} == {"page-conservation"}

    def test_burst_leak_needs_a_burst_to_fire(self, monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "burst-leak")
        burst = AntagonistBurst(at_us=50 * MSEC, kind="lock_hogger")
        for scenario in planted_inputs():
            quiet = scenario.replace_events(
                scenario.workloads, [], scenario.faults.events
            )
            assert run_scenario(quiet).ok  # no bursts, no leak
            noisy = run_scenario(scenario.replace_events(
                scenario.workloads, [burst], scenario.faults.events
            ))
            assert not noisy.ok
            assert any(v.name == "page-conservation" for v in noisy.violations)

    def test_simsan_catches_the_leak_at_event_granularity(self, monkeypatch):
        # The sanitizer's raise becomes a violation in a chaos run too.
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        for scenario in planted_inputs():
            result = run_scenario(scenario, simsan=True)
            assert not result.ok
            assert any(v.name == "simsan" for v in result.violations)

    def test_simsan_stays_quiet_on_clean_runs(self):
        for scenario in planted_inputs():
            assert run_scenario(scenario, simsan=True).ok

    def test_unset_plant_means_no_violation(self, monkeypatch):
        monkeypatch.delenv(ENV_PLANT, raising=False)
        for scenario in planted_inputs():
            assert run_scenario(scenario).ok


class TestWorkloadTranslation:
    @pytest.mark.parametrize("kind", [
        "pmake", "copy", "ocean", "simulator", "interactive", "cpu_hog",
    ])
    def test_each_workload_kind_runs(self, kind):
        result = run_scenario(scenario_with(
            workloads=[WorkloadSpec(kind=kind, spu="load0")],
            horizon_us=300 * MSEC,
        ))
        assert result.ok
        assert any("workload fuzz/load0" in line for line in result.journal)

    def test_duplicate_workloads_get_distinct_tags(self):
        twin = WorkloadSpec(kind="cpu_hog", spu="load0", start_us=0)
        result = run_scenario(scenario_with(workloads=[twin, twin]))
        assert result.ok
        tags = [l for l in result.journal if "start | workload" in l]
        assert len(tags) == 2
        assert len(set(tags)) == 2  # .0 and .1 suffixes
