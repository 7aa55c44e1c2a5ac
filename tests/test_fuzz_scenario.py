"""Scenario specs and generation: validation, determinism, round-trips."""

import math

import pytest

from repro.faults.plan import DiskFailure, DiskTransient, FaultPlan
from repro.fuzz.generate import generate_scenario
from repro.fuzz.scenario import (
    MEMORY_MB_RANGE,
    NCPUS_RANGE,
    NDISKS_RANGE,
    SCHEMES,
    WORKLOAD_KINDS,
    AntagonistBurst,
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.sim.units import MSEC, SEC


def small_scenario(**overrides):
    fields = dict(
        seed=1, ncpus=2, memory_mb=16, ndisks=2, scheme="piso",
        horizon_us=500 * MSEC,
        workloads=[WorkloadSpec(kind="cpu_hog", spu="load0")],
        bursts=[AntagonistBurst(at_us=0, kind="lock_hogger")],
        faults=FaultPlan([DiskFailure(at_us=100 * MSEC, disk=1)]),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestValidation:
    def test_accepts_a_legal_scenario(self):
        scenario = small_scenario()
        assert len(scenario) == 3

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ScenarioError, match="unknown scheme"):
            small_scenario(scheme="round_robin")

    def test_rejects_unknown_harness(self):
        with pytest.raises(ScenarioError, match="unknown harness"):
            small_scenario(harness="soak")

    def test_rejects_bad_bursts(self):
        # NaN slips past ordinary range checks (every comparison is
        # False), so bursts check finiteness explicitly.
        nan, inf = float("nan"), float("inf")
        for burst, match in (
            (AntagonistBurst(0, "nuke"), "unknown antagonist"),
            (AntagonistBurst(nan, "fork_bomb"), "at_us must be a finite"),
            (AntagonistBurst(inf, "fork_bomb"), "at_us must be a finite"),
            (AntagonistBurst(0, "fork_bomb", scale=nan), "scale must be a finite"),
            (AntagonistBurst(0, "fork_bomb", scale=inf), "scale must be a finite"),
            (AntagonistBurst(-5, "fork_bomb"), "before boot"),
            (AntagonistBurst(0, "fork_bomb", scale=0), "scale must be positive"),
            (AntagonistBurst(0, "fork_bomb", scale=-1), "scale must be positive"),
        ):
            with pytest.raises(ScenarioError, match=match):
                small_scenario(bursts=[burst])

    def test_rejects_unknown_workload_kind(self):
        with pytest.raises(ScenarioError, match="unknown workload"):
            small_scenario(workloads=[WorkloadSpec(kind="quake", spu="load0")])

    def test_rejects_reserved_spu_names(self):
        with pytest.raises(ScenarioError, match="reserved"):
            small_scenario(workloads=[WorkloadSpec(kind="cpu_hog", spu="victim")])

    def test_rejects_mount_beyond_machine(self):
        with pytest.raises(ScenarioError, match="mount 5"):
            small_scenario(
                workloads=[WorkloadSpec(kind="copy", spu="load0", mount=5)]
            )

    def test_rejects_fault_on_missing_disk(self):
        with pytest.raises(ScenarioError, match="disk 3"):
            small_scenario(
                faults=FaultPlan([DiskFailure(at_us=0, disk=3)])
            )

    def test_rejects_death_of_the_failover_disk(self):
        with pytest.raises(ScenarioError, match="disk 0"):
            small_scenario(faults=FaultPlan([DiskFailure(at_us=0, disk=0)]))

    def test_rejects_nan_and_non_integer_dimensions(self):
        with pytest.raises(ScenarioError, match="ncpus"):
            small_scenario(ncpus=float("nan"))
        with pytest.raises(ScenarioError, match="horizon_us"):
            small_scenario(horizon_us=math.inf)
        with pytest.raises(ScenarioError, match="memory_mb"):
            small_scenario(memory_mb=True)

    def test_rejects_out_of_range_dimensions(self):
        with pytest.raises(ScenarioError, match="ncpus"):
            small_scenario(ncpus=NCPUS_RANGE[1] + 1)
        with pytest.raises(ScenarioError, match="memory_mb"):
            small_scenario(memory_mb=MEMORY_MB_RANGE[0] - 1)
        with pytest.raises(ScenarioError, match="ndisks"):
            small_scenario(ndisks=NDISKS_RANGE[1] + 1)
        with pytest.raises(ScenarioError, match="horizon_us"):
            small_scenario(horizon_us=0)

    def test_rejects_excessive_intensity(self):
        with pytest.raises(ScenarioError, match="intensity"):
            small_scenario(
                workloads=[WorkloadSpec(kind="copy", spu="load0", intensity=9)]
            )


class TestRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        scenario = small_scenario()
        rebuilt = ScenarioSpec.from_json(scenario.to_json())
        assert rebuilt.to_dict() == scenario.to_dict()
        assert rebuilt.fingerprint() == scenario.fingerprint()

    def test_only_a_chaos_record_names_its_harness(self):
        # Fuzz records predate the field, so their fingerprints (and
        # every corpus line and digest) stay as they were.
        assert "harness" not in small_scenario().to_dict()
        chaos = small_scenario(harness="chaos")
        assert chaos.to_dict()["harness"] == "chaos"
        assert chaos.fingerprint() != small_scenario().fingerprint()

    def test_from_dict_rejects_foreign_formats(self):
        record = small_scenario().to_dict()
        record["format"] = "something-else"
        with pytest.raises(ScenarioError, match="not a fuzz scenario"):
            ScenarioSpec.from_dict(record)

    def test_from_dict_names_missing_fields(self):
        record = small_scenario().to_dict()
        del record["scheme"], record["workloads"]
        with pytest.raises(ScenarioError, match="scheme"):
            ScenarioSpec.from_dict(record)

    def test_from_dict_revalidates_events(self):
        record = small_scenario().to_dict()
        record["faults"] = [
            {"kind": "disk_transient", "at_us": 0, "disk": 0,
             "duration_us": float("nan")}
        ]
        with pytest.raises(ScenarioError, match="finite"):
            ScenarioSpec.from_dict(record)

    def test_fingerprint_tracks_content(self):
        a = small_scenario()
        b = small_scenario(seed=2)
        assert a.fingerprint() != b.fingerprint()


class TestDerivedForms:
    def test_replace_events_keeps_the_machine(self):
        scenario = small_scenario()
        stripped = scenario.replace_events([], [], [])
        assert len(stripped) == 0
        assert (stripped.ncpus, stripped.memory_mb, stripped.ndisks) == (
            scenario.ncpus, scenario.memory_mb, scenario.ndisks
        )

    def test_derived_forms_keep_the_harness(self):
        scenario = small_scenario(harness="chaos")
        assert scenario.replace_events([], [], []).harness == "chaos"
        assert scenario.replace_machine(ncpus=1).harness == "chaos"

    def test_replace_machine_revalidates(self):
        scenario = small_scenario()
        with pytest.raises(ScenarioError, match="disk"):
            # Dropping to one disk strands the DiskFailure on disk 1.
            scenario.replace_machine(ndisks=1)

    def test_simulation_spec_lists_reserved_and_workload_spus(self):
        spec = small_scenario().simulation_spec()
        assert spec.ncpus == 2
        names = [s if isinstance(s, str) else s.name for s in spec.spus]
        assert names == ["victim", "attacker", "load0"]


class TestGeneration:
    def test_generation_is_deterministic(self):
        a = generate_scenario(7)
        b = generate_scenario(7)
        assert a.to_dict() == b.to_dict()
        assert a.fingerprint() == b.fingerprint()

    def test_distinct_seeds_diverge(self):
        fingerprints = {generate_scenario(s).fingerprint() for s in range(20)}
        assert len(fingerprints) == 20

    def test_generated_scenarios_are_legal(self):
        # Construction re-validates, so survival == legality; spot-check
        # the interesting structural properties on top.
        for seed in range(60):
            scenario = generate_scenario(seed)
            assert NCPUS_RANGE[0] <= scenario.ncpus <= NCPUS_RANGE[1]
            assert scenario.scheme in SCHEMES
            assert all(w.kind in WORKLOAD_KINDS for w in scenario.workloads)
            assert all(w.mount < scenario.ndisks for w in scenario.workloads)
            for event in scenario.faults:
                disk = getattr(event, "disk", None)
                if disk is not None:
                    assert disk < scenario.ndisks
                if isinstance(event, DiskTransient):
                    assert event.duration_us > 0

    def test_pinning_horizon_and_scheme(self):
        scenario = generate_scenario(3, horizon_us=1 * SEC, scheme="smp")
        assert scenario.horizon_us == 1 * SEC
        assert scenario.scheme == "smp"
        # Pinning must not disturb the rest of the draw.
        free = generate_scenario(3)
        assert scenario.ncpus == free.ncpus
        assert scenario.memory_mb == free.memory_mb
