"""Unit tests for scheme configurations."""

import pytest

from repro.core import (
    DiskSchedPolicy,
    IsolationParams,
    piso_scheme,
    quota_scheme,
    scheme_by_name,
    smp_scheme,
)


class TestSchemeBundles:
    def test_smp_is_unconstrained(self):
        scheme = smp_scheme()
        assert not scheme.cpu_partitioned
        assert not scheme.mem_limits
        assert scheme.disk_policy is DiskSchedPolicy.POS

    def test_quota_isolates_without_sharing(self):
        scheme = quota_scheme()
        assert scheme.cpu_partitioned
        assert not scheme.cpu_lending
        assert scheme.mem_limits
        assert not scheme.mem_sharing

    def test_piso_isolates_and_shares(self):
        scheme = piso_scheme()
        assert scheme.cpu_partitioned
        assert scheme.cpu_lending
        assert scheme.mem_limits
        assert scheme.mem_sharing
        assert scheme.disk_policy is DiskSchedPolicy.PISO

    def test_with_disk_policy_copies(self):
        scheme = piso_scheme()
        modified = scheme.with_disk_policy(DiskSchedPolicy.POS)
        assert modified.disk_policy is DiskSchedPolicy.POS
        assert scheme.disk_policy is DiskSchedPolicy.PISO
        assert modified.name == scheme.name


class TestParams:
    def test_paper_defaults(self):
        params = IsolationParams()
        assert params.time_slice == 30_000
        assert params.clock_tick == 10_000
        assert params.reserve_threshold == 0.08
        assert params.disk_decay_period == 500_000

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bw_difference_threshold", float("nan")),
            ("bw_difference_threshold", -1.0),
            ("reserve_threshold", 1.5),
            ("reserve_threshold", -0.1),
            ("reserve_threshold", float("nan")),
            ("time_slice", 0),
            ("time_slice", -1),
            ("clock_tick", 0),
            ("memory_rebalance_period", 0),
            ("disk_decay_period", 0),
            ("pageout_period", 0),
        ],
    )
    def test_bad_tunable_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            IsolationParams(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bw_difference_threshold", 0.0),
            ("bw_difference_threshold", float("inf")),
            ("reserve_threshold", 0.0),
            ("reserve_threshold", 1.0),
            ("time_slice", 1),
        ],
    )
    def test_range_limits_accepted(self, field, value):
        assert getattr(IsolationParams(**{field: value}), field) == value


class TestLookup:
    def test_by_name_case_insensitive(self):
        assert scheme_by_name("SMP").name == "SMP"
        assert scheme_by_name("piso").name == "PIso"
        assert scheme_by_name("Quo").name == "Quo"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            scheme_by_name("bogus")

    def test_params_are_threaded_through(self):
        params = IsolationParams(time_slice=1234)
        assert scheme_by_name("piso", params).params.time_slice == 1234
