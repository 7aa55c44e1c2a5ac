"""Tests for flattening results into records."""

import dataclasses

import pytest

from repro.metrics import to_records


@dataclasses.dataclass(frozen=True)
class Row:
    policy: str
    response_s: float
    wait_ms: float


@dataclasses.dataclass(frozen=True)
class Nested:
    name: str
    inner: Row


class TestRecords:
    def test_single_dataclass(self):
        records = to_records(Row("pos", 1.5, 30.0))
        assert records == [{"policy": "pos", "response_s": 1.5, "wait_ms": 30.0}]

    def test_list_of_dataclasses(self):
        records = to_records([Row("a", 1, 2), Row("b", 3, 4)])
        assert records == [
            {"policy": "a", "response_s": 1, "wait_ms": 2},
            {"policy": "b", "response_s": 3, "wait_ms": 4},
        ]
        # Columns keep the dataclass field order.
        assert list(records[0]) == ["policy", "response_s", "wait_ms"]

    def test_dict_becomes_labelled_rows(self):
        records = to_records({"pos": Row("pos", 1, 2), "iso": Row("iso", 3, 4)})
        assert records[0]["label"] == "pos"
        assert records[1]["response_s"] == 3

    def test_nested_dataclass_flattens_dotted(self):
        records = to_records(Nested("x", Row("pos", 1, 2)))
        assert records[0]["inner.policy"] == "pos"

    def test_nested_dict_values(self):
        records = to_records({"run": {"a": 1, "b": {"c": 2}}})
        assert records[0]["a"] == 1
        assert records[0]["b.c"] == 2

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            to_records(42)


class TestRealExperimentOutput:
    def test_table4_exports(self):
        # Use the paper constants rather than running the simulation.
        from repro.experiments import PAPER_TABLE4

        records = to_records(PAPER_TABLE4)
        assert {r["label"] for r in records} == {"pos", "iso", "piso"}

    def test_antagonist_rows_flatten_nested_overload_stats(self):
        # Regression: AntagonistRow nests an OverloadStats dataclass;
        # export must flatten it to dotted columns rather than choking
        # on (or stringifying) the inner dataclass.  Built by hand so
        # the test doesn't pay for the full experiment.
        from repro.experiments import AntagonistRow, OverloadStats

        rows = [
            AntagonistRow(
                antagonist="fork_bomb", scheme="PIso",
                victim_shared_s=4.1, victim_solo_s=4.0, slowdown=1.02,
                overload=OverloadStats(
                    spawn_denials=12, mem_denials=0, io_throttled=3,
                    io_rejected=1, oom_kills=1, throttles=2, guard_kills=1,
                ),
                watchdog_checks=40, violations=0,
            ),
            AntagonistRow(
                antagonist="fork_bomb", scheme="SMP",
                victim_shared_s=11.0, victim_solo_s=4.0, slowdown=2.75,
                overload=OverloadStats(
                    spawn_denials=0, mem_denials=0, io_throttled=0,
                    io_rejected=0, oom_kills=0, throttles=0, guard_kills=0,
                ),
                watchdog_checks=40, violations=0,
            ),
        ]
        records = to_records(rows)
        assert records[0]["overload.spawn_denials"] == 12
        assert records[0]["overload.guard_kills"] == 1
        assert records[1]["overload.oom_kills"] == 0
        assert all(
            not isinstance(value, (dict, tuple)) and not hasattr(value, "__dataclass_fields__")
            for record in records for value in record.values()
        )
        assert {"antagonist", "overload.spawn_denials",
                "overload.throttles"} <= set(records[0])
