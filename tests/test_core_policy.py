"""Unit tests for sharing policies."""

import pytest

from repro.core import (
    AlwaysShare,
    NeverShare,
    Resource,
    ShareIdle,
    SPURegistry,
)


@pytest.fixture
def spu():
    spu = SPURegistry().create("a")
    spu.memory().set_entitled(100)
    spu.memory().acquire(40)
    return spu


class TestNeverShare:
    def test_lends_nothing(self, spu):
        assert NeverShare().lendable(spu, Resource.MEMORY) == 0


class TestAlwaysShare:
    def test_lends_full_entitlement_even_when_busy(self, spu):
        assert AlwaysShare().lendable(spu, Resource.MEMORY) == 100


class TestShareIdle:
    def test_lends_only_idle_entitlement(self, spu):
        assert ShareIdle().lendable(spu, Resource.MEMORY) == 60

    def test_lends_nothing_when_fully_used(self, spu):
        spu.memory().acquire(60)
        assert ShareIdle().lendable(spu, Resource.MEMORY) == 0

    def test_borrowed_headroom_is_not_lendable(self, spu):
        spu.memory().set_allowed(150)
        assert ShareIdle().lendable(spu, Resource.MEMORY) == 60
