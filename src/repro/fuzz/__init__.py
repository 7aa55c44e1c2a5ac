"""repro.fuzz — generative scenario fuzzing for the simulator.

The fuzzer draws every axis the paper's claims quantify over —
machine shape, allocation scheme, workload mix, antagonist schedule,
fault schedule — from one seeded, legal-by-construction draw
(:func:`generate_scenario`), runs it under the full oracle stack
(:func:`run_scenario`), campaigns over seed ranges with a resumable
JSONL corpus (:func:`run_campaign`), and shrinks every failure to a
minimal replayable repro (:func:`shrink_scenario`) with the generic
ddmin core (:func:`ddmin`).

The chaos soak (:mod:`repro.chaos`) is a preset of the same harness:
its plans are scenarios with ``harness="chaos"`` on one fixed machine,
so this runner, shrinker and repro-file format serve both.

The fleet dimension (:func:`generate_fleet_scenario`,
:func:`run_fleet_fuzz_record`; ``--fleet`` on the CLI) draws whole
multi-machine fleets — crash/recover/partition schedules, SPU
failover, SLO admission — and judges them with the fleet watchdog,
flowing through the same resumable corpus and sharding.
"""

from repro.fuzz.campaign import (
    CampaignConfig,
    CampaignError,
    CampaignReport,
    load_corpus,
    repair_corpus,
    run_campaign,
)
from repro.fuzz.ddmin import ddmin
from repro.fuzz.fleet import (
    fleet_fingerprint,
    generate_fleet_scenario,
    run_fleet_fuzz_record,
)
from repro.fuzz.generate import generate_scenario
from repro.fuzz.runner import ScenarioResult, run_record, run_scenario
from repro.fuzz.scenario import (
    SCHEMES,
    WORKLOAD_KINDS,
    AntagonistBurst,
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.fuzz.shrink import (
    ShrinkScenarioResult,
    load_repro,
    replay,
    shrink_scenario,
    write_repro,
)

__all__ = [
    "AntagonistBurst",
    "CampaignConfig",
    "CampaignError",
    "CampaignReport",
    "SCHEMES",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioSpec",
    "ShrinkScenarioResult",
    "WORKLOAD_KINDS",
    "WorkloadSpec",
    "ddmin",
    "fleet_fingerprint",
    "generate_fleet_scenario",
    "generate_scenario",
    "load_corpus",
    "load_repro",
    "repair_corpus",
    "replay",
    "run_campaign",
    "run_fleet_fuzz_record",
    "run_record",
    "run_scenario",
    "shrink_scenario",
    "write_repro",
]
