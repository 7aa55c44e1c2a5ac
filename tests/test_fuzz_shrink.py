"""Scenario shrinking and repro files: the minimal-repro pipeline."""

import pytest

from repro.faults.plan import DiskFailure, FaultPlan
from repro.fuzz.runner import ENV_PLANT, run_scenario
from repro.fuzz.scenario import (
    AntagonistBurst,
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.fuzz.shrink import (
    MIN_HORIZON_US,
    load_repro,
    replay,
    repro_record,
    shrink_scenario,
    write_repro,
)
from repro.sim.units import MSEC


def busy_scenario(seed=5):
    """A deliberately over-full scenario for the shrinker to strip."""
    return ScenarioSpec(
        seed=seed, ncpus=4, memory_mb=32, ndisks=2, scheme="piso",
        horizon_us=800 * MSEC,
        workloads=[
            WorkloadSpec(kind="cpu_hog", spu="load0"),
            WorkloadSpec(kind="copy", spu="load1", mount=1),
        ],
        bursts=[
            AntagonistBurst(at_us=50 * MSEC, kind="lock_hogger"),
            AntagonistBurst(at_us=100 * MSEC, kind="cache_polluter"),
        ],
        faults=FaultPlan([DiskFailure(at_us=300 * MSEC, disk=1)]),
    )


class TestShrink:
    def test_page_leak_shrinks_to_the_empty_minimal_machine(self, monkeypatch):
        # The env-planted leak fires regardless of the schedule, so the
        # minimal repro is no events at all on the smallest machine.
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        shrunk = shrink_scenario(busy_scenario(), "page-conservation")
        s = shrunk.scenario
        assert len(s) == 0
        assert (s.ncpus, s.memory_mb, s.ndisks) == (1, 8, 1)
        assert s.horizon_us == MIN_HORIZON_US
        assert shrunk.runs >= 1
        assert not run_scenario(s).ok

    def test_burst_leak_keeps_at_least_one_burst(self, monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "burst-leak")
        shrunk = shrink_scenario(busy_scenario(), "page-conservation")
        s = shrunk.scenario
        assert len(s.bursts) == 1
        assert len(s.workloads) == 0
        assert len(s.faults) == 0
        assert not run_scenario(s).ok

    def test_shrink_refuses_a_passing_scenario(self):
        with pytest.raises(ValueError, match="cannot shrink"):
            shrink_scenario(busy_scenario(), "page-conservation")

    def test_budget_bounds_total_runs(self, monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        shrunk = shrink_scenario(
            busy_scenario(), "page-conservation", max_runs=3
        )
        assert shrunk.runs <= 3
        # Whatever the budget, the result still fails.
        assert not run_scenario(shrunk.scenario).ok

    def test_disk_floor_respects_remaining_references(self, monkeypatch):
        # With the fault on disk 1 forced to stay (page-leak removes
        # everything, so build a scenario where only a 2-disk event
        # list survives a tiny ddmin budget): the dimension pass must
        # never strand a disk-1 reference on a 1-disk machine —
        # replace_machine would raise ScenarioError if it tried.
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        shrunk = shrink_scenario(
            busy_scenario(), "page-conservation", max_runs=2
        )
        s = shrunk.scenario
        for w in s.workloads:
            assert w.mount < s.ndisks
        for e in s.faults:
            assert getattr(e, "disk", 0) < s.ndisks


class TestReproFiles:
    def make_failing(self, monkeypatch):
        monkeypatch.setenv(ENV_PLANT, "page-leak")
        result = run_scenario(busy_scenario())
        assert not result.ok
        return result

    def test_repro_record_requires_a_violation(self):
        with pytest.raises(ValueError, match="no violation"):
            repro_record(run_scenario(busy_scenario()))

    def test_repro_file_replays_to_the_same_violation(self, tmp_path, monkeypatch):
        result = self.make_failing(monkeypatch)
        path = str(tmp_path / "repro.json")
        write_repro(path, result)
        scenario, recorded = load_repro(path)
        assert scenario.to_dict() == result.scenario.to_dict()
        replayed = replay(path)
        assert not replayed.ok
        assert replayed.violations[0] == recorded
        assert replayed.journal == result.journal

    def test_replay_is_clean_once_the_bug_is_fixed(self, tmp_path, monkeypatch):
        result = self.make_failing(monkeypatch)
        path = str(tmp_path / "repro.json")
        write_repro(path, result)
        monkeypatch.delenv(ENV_PLANT)
        assert replay(path).ok

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "repro.chaos/1"}')
        with pytest.raises(ScenarioError, match="not a fuzz repro"):
            load_repro(str(path))
