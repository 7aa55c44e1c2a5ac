"""Unit and property tests for the entitled/allowed/used model."""

import pytest
from hypothesis import given, strategies as st

from repro.core import Resource, ResourceLevelError, ResourceLevels


class TestInvariants:
    def test_defaults_are_zero(self):
        levels = ResourceLevels()
        assert (levels.entitled, levels.allowed, levels.used) == (0, 0, 0)

    def test_negative_entitled_rejected(self):
        with pytest.raises(ResourceLevelError):
            ResourceLevels(entitled=-1)

    def test_allowed_below_entitled_rejected(self):
        with pytest.raises(ResourceLevelError):
            ResourceLevels(entitled=10, allowed=5)

    def test_used_above_allowed_rejected(self):
        with pytest.raises(ResourceLevelError):
            ResourceLevels(entitled=5, allowed=5, used=6)

    def test_negative_used_rejected(self):
        with pytest.raises(ResourceLevelError):
            ResourceLevels(entitled=5, allowed=5, used=-1)


class TestMutations:
    def test_acquire_and_release(self):
        levels = ResourceLevels(entitled=10, allowed=10)
        levels.acquire(4)
        assert levels.used == 4
        levels.release(3)
        assert levels.used == 1

    def test_acquire_beyond_allowed_raises(self):
        levels = ResourceLevels(entitled=2, allowed=2)
        levels.acquire(2)
        with pytest.raises(ResourceLevelError):
            levels.acquire(1)

    def test_acquire_negative_raises(self):
        with pytest.raises(ResourceLevelError):
            ResourceLevels(entitled=2, allowed=2).acquire(-1)

    def test_release_more_than_used_raises(self):
        levels = ResourceLevels(entitled=2, allowed=2, used=1)
        with pytest.raises(ResourceLevelError):
            levels.release(2)

    def test_release_negative_raises(self):
        with pytest.raises(ResourceLevelError):
            ResourceLevels(entitled=2, allowed=2, used=1).release(-1)

    def test_can_use_respects_cap(self):
        levels = ResourceLevels(entitled=3, allowed=3, used=2)
        assert levels.can_use(1)
        assert not levels.can_use(2)

    def test_set_allowed_lends(self):
        levels = ResourceLevels(entitled=5, allowed=5)
        levels.set_allowed(8)
        assert levels.borrowed == 3

    def test_set_allowed_cannot_drop_below_entitled(self):
        levels = ResourceLevels(entitled=5, allowed=8)
        with pytest.raises(ResourceLevelError):
            levels.set_allowed(4)

    def test_set_allowed_cannot_strand_usage(self):
        levels = ResourceLevels(entitled=5, allowed=10, used=8)
        with pytest.raises(ResourceLevelError):
            levels.set_allowed(6)

    def test_set_entitled_raises_allowed_if_needed(self):
        levels = ResourceLevels(entitled=2, allowed=2)
        levels.set_entitled(6)
        assert levels.allowed == 6

    def test_set_entitled_can_shrink_below_used(self):
        # An SPU may be using more than a freshly shrunk entitlement —
        # that is exactly the "borrowing" state.
        levels = ResourceLevels(entitled=10, allowed=10, used=8)
        levels.set_entitled(4)
        assert levels.over_entitlement
        assert levels.allowed == 10

    def test_set_entitled_negative_raises(self):
        with pytest.raises(ResourceLevelError):
            ResourceLevels().set_entitled(-1)


class TestDerived:
    def test_borrowed(self):
        assert ResourceLevels(entitled=5, allowed=9, used=6).borrowed == 4

    def test_over_entitlement(self):
        assert ResourceLevels(entitled=2, allowed=8, used=3).over_entitlement
        assert not ResourceLevels(entitled=4, allowed=8, used=3).over_entitlement


class TestResourceEnum:
    def test_three_resources(self):
        assert {r.value for r in Resource} == {"cpu", "memory", "disk_bw"}


@given(
    entitled=st.integers(0, 1000),
    lend=st.integers(0, 1000),
    ops=st.lists(st.integers(-50, 50), max_size=60),
)
def test_property_invariants_hold_under_any_op_sequence(entitled, lend, ops):
    """Whatever sequence of acquires/releases is applied, rejected ops
    leave state untouched and the invariants always hold."""
    levels = ResourceLevels(entitled=entitled, allowed=entitled + lend)
    for op in ops:
        try:
            if op >= 0:
                levels.acquire(op)
            else:
                levels.release(-op)
        except ResourceLevelError:
            pass
        assert 0 <= levels.used <= levels.allowed
        assert levels.entitled <= levels.allowed
