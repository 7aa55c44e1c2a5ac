"""The chaos soak: plan generation, soak runs, repro files and the CLI.

A chaos plan is a fuzz scenario with ``harness="chaos"``, so the runner,
shrinker and repro files under test here are the fuzzer's; the
``test_fuzz_*`` files also take a chaos plan among their inputs.
"""

import pytest

from repro.chaos import generate_plan, run_soak
from repro.chaos.plan import CHAOS_NCPUS, MIN_CPUS_ONLINE
from repro.chaos.soak import main
from repro.faults.plan import CpuAdd, CpuRemove, DiskFailure
from repro.fuzz.runner import ENV_PLANT, run_scenario
from repro.fuzz.scenario import AntagonistBurst, ScenarioError, ScenarioSpec
from repro.fuzz.shrink import load_repro, replay, shrink_scenario, write_repro
from repro.sim.units import MSEC


def with_burst(burst):
    """A chaos plan whose only event is ``burst``."""
    return generate_plan(seed=0).replace_events([], [burst], [])


class TestChaosPlan:
    def test_validates_bursts(self):
        with pytest.raises(ScenarioError, match="unknown antagonist"):
            with_burst(AntagonistBurst(0, "nuke"))
        with pytest.raises(ScenarioError, match="scale"):
            with_burst(AntagonistBurst(0, "fork_bomb", scale=-1))
        with pytest.raises(ScenarioError, match="before boot"):
            with_burst(AntagonistBurst(-5, "fork_bomb"))
        with pytest.raises(ScenarioError, match="horizon"):
            generate_plan(seed=0).replace_machine(horizon_us=0)

    def test_rejects_non_finite_numbers(self):
        # NaN slips past ordinary range checks (every comparison is
        # False), so bursts and the horizon check finiteness explicitly.
        nan = float("nan")
        with pytest.raises(ScenarioError, match="finite"):
            with_burst(AntagonistBurst(nan, "fork_bomb"))
        with pytest.raises(ScenarioError, match="finite"):
            with_burst(AntagonistBurst(0, "fork_bomb", scale=nan))
        with pytest.raises(ScenarioError, match="finite"):
            generate_plan(seed=0).replace_machine(horizon_us=float("inf"))

    def test_json_round_trip(self):
        plan = generate_plan(seed=7)
        clone = ScenarioSpec.from_json(plan.to_json())
        assert clone.harness == "chaos"
        assert clone.to_dict() == plan.to_dict()
        assert len(clone) == len(plan)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            ScenarioSpec.from_json("{nope")
        with pytest.raises(ScenarioError, match="missing fields"):
            ScenarioSpec.from_json('{"seed": 0}')
        record = generate_plan(seed=0).to_dict()
        with pytest.raises(ScenarioError, match="bad burst fields"):
            ScenarioSpec.from_dict(dict(record, bursts=[{"when": 3}]))
        with pytest.raises(ScenarioError, match="bad fault plan"):
            ScenarioSpec.from_dict(dict(
                record, faults=[{"kind": "meteor_strike", "at_us": 1}]
            ))

    def test_generation_is_deterministic_and_legal(self):
        for seed in range(30):
            plan = generate_plan(seed)
            again = generate_plan(seed)
            assert plan.to_dict() == again.to_dict()
            assert (plan.harness, plan.scheme, plan.workloads) == (
                "chaos", "piso", []
            )
            assert plan.bursts, "every plan carries at least one antagonist"
            online = CHAOS_NCPUS
            for event in plan.faults:
                if isinstance(event, DiskFailure):
                    assert event.disk != 0, "disk 0 is the failover target"
                elif isinstance(event, CpuRemove):
                    online -= 1
                elif isinstance(event, CpuAdd):
                    assert online < CHAOS_NCPUS, "CpuAdd with nothing offline"
                    online += 1
                assert online >= MIN_CPUS_ONLINE


class TestSoak:
    def test_clean_run_has_progress_and_no_violations(self):
        plan = generate_plan(seed=1, horizon_us=1500 * MSEC)
        result = run_scenario(plan)
        assert result.ok
        assert result.checkpoints > 0
        assert result.journal[0].startswith("plan |")
        assert result.journal[-1].startswith("end |")
        assert any("launch |" in line for line in result.journal)

    def test_short_soak_over_seeds_is_clean(self):
        for result in run_soak([0, 1, 2], horizon_us=1500 * MSEC):
            assert result.ok, result.violations


class TestReproAndShrink:
    def make_failing(self, monkeypatch):
        # The planted bug leaks pages whenever a burst fires.
        monkeypatch.setenv(ENV_PLANT, "burst-leak")
        plan = generate_plan(seed=2, horizon_us=1200 * MSEC)
        result = run_scenario(plan)
        assert not result.ok
        assert result.violations[0].name == "page-conservation"
        return plan, result

    def test_repro_file_replays_to_the_same_violation(self, tmp_path,
                                                      monkeypatch):
        plan, result = self.make_failing(monkeypatch)
        path = str(tmp_path / "repro.json")
        write_repro(path, result)
        loaded_plan, recorded = load_repro(path)
        assert loaded_plan.to_dict() == plan.to_dict()
        replayed = replay(path)
        assert not replayed.ok
        assert replayed.violations[0] == recorded
        assert replayed.journal == result.journal

    def test_shrink_reaches_a_minimal_plan(self, monkeypatch):
        plan, result = self.make_failing(monkeypatch)
        assert len(plan) > 1
        shrunk = shrink_scenario(plan, result.violations[0].name)
        # One burst is the whole reproduction, and the shrunken plan
        # still runs as a chaos plan.
        assert len(shrunk.scenario) == len(shrunk.scenario.bursts) == 1
        assert shrunk.scenario.harness == "chaos"
        final = run_scenario(shrunk.scenario)
        assert any(v.name == "page-conservation" for v in final.violations)


class TestCli:
    def test_clean_seeds_exit_zero(self, capsys):
        assert main(["--seeds", "1", "--horizon-ms", "1200"]) == 0
        out = capsys.readouterr().out
        assert "seed 1: ok" in out

    @pytest.mark.parametrize("argv, flag", [
        (["--seeds", "0", "--horizon-ms", "0"], "--horizon-ms"),
        (["--seeds", "0", "--horizon-ms", "-5"], "--horizon-ms"),
        (["--seed", "-1"], "--seed"),
        (["--seeds", "0", "-1"], "--seeds"),
    ])
    def test_bad_numbers_are_usage_errors(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"{flag} must be" in capsys.readouterr().err
