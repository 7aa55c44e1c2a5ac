"""The fleet runner: epochs, failover, conservation, byte-identity."""

from fractions import Fraction

import pytest

from repro.faults.fleet import (
    FleetFaultPlan,
    MachineCrash,
    MachineRecover,
    NetworkPartition,
)
from repro.fleet import (
    FleetMachineSpec,
    FleetSpec,
    FleetSpuSpec,
    expected_capacity_integral,
    run_fleet,
    run_fleet_record,
)
from repro.parallel import Executor, SweepPlan, values
from repro.sim.units import MSEC

HORIZON = 400 * MSEC
CRASH_AT = 150 * MSEC


def spu(name, demand=1.0, floor=0.5, jobs=1, rounds=200, compute_us=5000):
    return FleetSpuSpec(
        name=name, demand_cpus=demand, slo_min_fraction=floor,
        jobs=jobs, rounds=rounds, compute_us=compute_us,
    )


def two_machine_fleet(events=(), scheme="piso", seed=0):
    """Machine 0 with 1 CPU of slack, machine 1 fully committed."""
    return FleetSpec(
        machines=[FleetMachineSpec(ncpus=4), FleetMachineSpec(ncpus=4)],
        spus=[
            spu("home-0", demand=3.0),
            spu("svc-1", demand=1.5),
            spu("scratch-1", demand=2.0, floor=0.9),
        ],
        placement={"home-0": 0, "svc-1": 1, "scratch-1": 1},
        scheme=scheme,
        seed=seed,
        horizon_us=HORIZON,
        faults=FleetFaultPlan(list(events)),
    )


class TestQuietFleet:
    def test_no_faults_no_violations_and_full_progress_is_possible(self):
        spec = two_machine_fleet()
        result = run_fleet(spec)
        assert result.ok
        assert result.decisions == [] and result.shed == {}
        # Every SPU stayed home at full contract.
        for s in spec.spus:
            index, fraction = result.placements[s.name]
            assert index == spec.placement[s.name]
            assert fraction == 1
        # Progress is monotone across snapshots and bounded by totals.
        for name, rounds in result.progress.items():
            assert 0 <= rounds <= spec.spu(name).total_rounds

    def test_capacity_integral_matches_derivation(self):
        spec = two_machine_fleet()
        assert expected_capacity_integral(spec, HORIZON) == \
            2 * 4000 * HORIZON


class TestCrashFailover:
    EVENTS = (MachineCrash(at_us=CRASH_AT, machine=1),)

    def test_crash_evacuates_admits_degrades_and_sheds(self):
        result = run_fleet(two_machine_fleet(self.EVENTS))
        assert result.ok
        actions = {d.spu: d.action for d in result.decisions}
        # Machine 0 has 1 CPU of slack.  scratch-1 places first (2.0
        # demand): offered 1/2 < its 0.9 floor -> shed.  svc-1 (1.5)
        # then gets 2/3 of its contract -> degrade.
        assert actions == {"scratch-1": "shed", "svc-1": "degrade"}
        assert "scratch-1" in result.shed
        index, fraction = result.placements["svc-1"]
        assert index == 0
        assert fraction == Fraction(2, 3)

    def test_no_spu_is_lost_and_progress_survives_the_crash(self):
        spec = two_machine_fleet(self.EVENTS)
        result = run_fleet(spec)
        assert set(result.progress) == {s.name for s in spec.spus}
        at_crash = dict(next(
            rounds for when, rounds in result.snapshots if when == CRASH_AT
        ))
        for name in ("svc-1", "scratch-1"):
            # Durable rounds at the crash are never lost: the final
            # count is at least what had been checkpointed.
            assert result.progress[name] >= at_crash[name] > 0

    def test_snapshots_are_monotone_per_spu(self):
        result = run_fleet(two_machine_fleet(self.EVENTS))
        last = {}
        for _, rounds in result.snapshots:
            for name, done in rounds.items():
                assert done >= last.get(name, 0)
                last[name] = done

    def test_crashed_machine_capacity_leaves_the_integral(self):
        spec = two_machine_fleet(self.EVENTS)
        expected = 2 * 4000 * CRASH_AT + 4000 * (HORIZON - CRASH_AT)
        assert expected_capacity_integral(spec, HORIZON) == expected
        # And the runner's incremental accounting agrees (the watchdog
        # would have flagged any disagreement as a violation).
        assert run_fleet(spec).ok

    def test_shed_spu_progress_is_parked_not_zeroed(self):
        result = run_fleet(two_machine_fleet(self.EVENTS))
        assert result.progress["scratch-1"] > 0
        assert result.progress["scratch-1"] < \
            two_machine_fleet().spu("scratch-1").total_rounds


class TestRecoverAndPartition:
    def test_recovered_machine_rejoins_as_spare(self):
        # Crash 1, recover it, then crash 0: the recovered machine 1
        # must be the evacuation target.
        events = (
            MachineCrash(at_us=100 * MSEC, machine=1),
            MachineRecover(at_us=200 * MSEC, machine=1),
            MachineCrash(at_us=300 * MSEC, machine=0),
        )
        result = run_fleet(two_machine_fleet(events))
        assert result.ok
        landings = [
            d for d in result.decisions
            if d.time_us == 300 * MSEC and d.action != "shed"
        ]
        assert landings and all(d.machine == 1 for d in landings)

    def test_partition_blocks_migration_and_forces_shedding(self):
        # Machine 0 is partitioned across the crash: nothing can land.
        events = (
            NetworkPartition(
                at_us=100 * MSEC, machines=(0,), duration_us=200 * MSEC
            ),
            MachineCrash(at_us=CRASH_AT, machine=1),
        )
        result = run_fleet(two_machine_fleet(events))
        assert result.ok
        assert set(result.shed) == {"svc-1", "scratch-1"}
        assert all(
            "no reachable machine" in d.reason
            for d in result.decisions
        )

    def test_partition_expiry_restores_reachability(self):
        # The partition ends before the crash: failover proceeds.
        events = (
            NetworkPartition(
                at_us=50 * MSEC, machines=(0,), duration_us=50 * MSEC
            ),
            MachineCrash(at_us=CRASH_AT, machine=1),
        )
        result = run_fleet(two_machine_fleet(events))
        assert result.placements["svc-1"][0] == 0


class TestRepeatedMigration:
    def test_double_crash_composes_degradation_fractions(self):
        # svc bounces 1 -> 0 -> 2, degraded at each hop; its final
        # fraction must be the *product* of the hops' fractions.
        spec = FleetSpec(
            machines=[
                FleetMachineSpec(ncpus=2),
                FleetMachineSpec(ncpus=2),
                FleetMachineSpec(ncpus=2),
            ],
            spus=[
                spu("anchor-0", demand=1.0, rounds=400),
                spu("svc", demand=2.0, floor=0.25, rounds=400),
                spu("anchor-2", demand=1.5, rounds=400),
            ],
            placement={"anchor-0": 0, "svc": 1, "anchor-2": 2},
            scheme="piso",
            seed=0,
            horizon_us=HORIZON,
            faults=FleetFaultPlan([
                MachineCrash(at_us=100 * MSEC, machine=1),
                MachineCrash(at_us=250 * MSEC, machine=0),
            ]),
        )
        result = run_fleet(spec)
        assert result.ok
        hops = [d for d in result.decisions if d.spu == "svc"]
        assert [d.action for d in hops] == ["degrade", "degrade"]
        # Hop 1: machine 0 has 1000 of 2000 free -> 1/2 of the 2000
        # demanded.  Hop 2: machine 2 has 500 free -> 1/4 incoming
        # offer capped at the incoming 1/2.
        assert hops[0].fraction == Fraction(1, 2)
        assert hops[1].fraction == Fraction(1, 4)
        assert result.placements["svc"] == (2, Fraction(1, 4))
        # Progress accumulated across all three hostings.
        at_first = next(
            rounds for when, rounds in result.snapshots
            if when == 100 * MSEC
        )
        at_second = next(
            rounds for when, rounds in result.snapshots
            if when == 250 * MSEC
        )
        assert result.progress["svc"] >= at_second["svc"] >= at_first["svc"] > 0


class TestDeterminism:
    def test_same_spec_same_digest(self):
        spec = two_machine_fleet((MachineCrash(at_us=CRASH_AT, machine=1),))
        a = run_fleet_record(spec.to_dict())
        b = run_fleet_record(spec.to_dict())
        assert a == b

    def test_serial_vs_parallel_records_are_byte_identical(self):
        payloads = [
            two_machine_fleet(
                (MachineCrash(at_us=CRASH_AT, machine=1),),
                scheme=scheme, seed=seed,
            ).to_dict()
            for scheme in ("smp", "piso")
            for seed in (0, 7)
        ]
        serial = [run_fleet_record(p) for p in payloads]
        parallel = values(Executor(SweepPlan(max_workers=2)).run(run_fleet_record, payloads))
        assert serial == parallel

    def test_smoke_cli_parallel_leg_runs_in_worker_processes(self, monkeypatch):
        # The smoke gate compares the serial record with records made in
        # worker processes, not with a second in-process run.
        import repro.fleet.__main__ as fleet_main

        seen = []

        class _Spy(fleet_main.Executor):
            def run(self, fn, payloads):
                outcomes = super().run(fn, payloads)
                seen.extend(outcomes)
                return outcomes

        monkeypatch.setattr(fleet_main, "Executor", _Spy)
        assert fleet_main.main(["--scheme", "piso", "--workers", "2"]) == 0
        assert len(seen) == 2
        assert all(o.ok and o.worker >= 0 for o in seen)

    @pytest.mark.parametrize("workers", ["1", "0", "-3"])
    def test_smoke_cli_refuses_fewer_than_two_workers(self, workers, capsys):
        # Below 2 the executor runs the parallel leg in-process, so the
        # identity check would compare two in-process runs.
        import repro.fleet.__main__ as fleet_main

        with pytest.raises(SystemExit) as exc:
            fleet_main.main(["--workers", workers])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--workers must be at least 2" in err
        assert "in-process" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--seed", "-1"], "--seed"),
        (["--machines", "0"], "--machines"),
        (["--horizon", "0"], "--horizon"),
        (["--crash-at", "-5"], "--crash-at"),
        # Past the default 600 ms horizon: the crash would never fire.
        (["--crash-at", "700000"], "--crash-at"),
    ])
    def test_bad_numbers_are_usage_errors(self, argv, flag, capsys):
        import repro.fleet.__main__ as fleet_main

        with pytest.raises(SystemExit) as exc:
            fleet_main.main(argv)
        assert exc.value.code == 2
        assert f"{flag} must be" in capsys.readouterr().err

    def test_seed_changes_the_journal(self):
        spec_a = two_machine_fleet(seed=0)
        spec_b = two_machine_fleet(seed=1)
        assert run_fleet_record(spec_a)["digest"] != \
            run_fleet_record(spec_b)["digest"]

    def test_journal_head_names_the_fleet(self):
        result = run_fleet(two_machine_fleet())
        head = result.journal[0]
        assert "scheme=piso" in head and "machines=2" in head
        assert result.journal[-1].startswith("end |")
