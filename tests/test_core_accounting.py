"""Unit and property tests for decayed counters and accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.core import CpuTimeAccount, DecayedCounter
from repro.core.accounting import AccountingError


class TestDecayedCounter:
    def test_starts_at_zero(self):
        assert DecayedCounter(period=100).value(0) == 0.0

    def test_add_accumulates(self):
        counter = DecayedCounter(period=100)
        counter.add(10, now=0)
        counter.add(5, now=50)
        assert counter.value(50) == 15.0

    def test_halves_after_one_period(self):
        counter = DecayedCounter(period=100)
        counter.add(16, now=0)
        assert counter.value(100) == 8.0

    def test_halves_per_elapsed_period(self):
        counter = DecayedCounter(period=100)
        counter.add(16, now=0)
        assert counter.value(400) == 1.0

    def test_partial_period_does_not_decay(self):
        counter = DecayedCounter(period=100)
        counter.add(16, now=0)
        assert counter.value(99) == 16.0

    def test_decay_is_anchored_to_period_boundaries(self):
        counter = DecayedCounter(period=100)
        counter.add(16, now=0)
        counter.value(150)  # mid-period observation must not reset phase
        assert counter.value(200) == 4.0

    def test_huge_elapsed_time_zeroes(self):
        counter = DecayedCounter(period=1)
        counter.add(1e30, now=0)
        assert counter.value(10_000) == 0.0

    def test_negative_add_raises(self):
        with pytest.raises(AccountingError):
            DecayedCounter(period=100).add(-1, now=0)

    def test_time_going_backwards_raises(self):
        counter = DecayedCounter(period=100)
        counter.add(1, now=500)
        with pytest.raises(AccountingError):
            counter.value(400)

    def test_non_positive_period_raises(self):
        with pytest.raises(AccountingError):
            DecayedCounter(period=0)

    def test_reset(self):
        counter = DecayedCounter(period=100)
        counter.add(16, now=0)
        counter.reset(now=250)
        assert counter.value(250) == 0.0

    @given(
        adds=st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 100)), max_size=30
        )
    )
    def test_property_value_never_negative_and_bounded(self, adds):
        counter = DecayedCounter(period=100)
        now = 0
        total = 0.0
        for dt, amount in adds:
            now += dt
            counter.add(amount, now)
            total += amount
            assert 0.0 <= counter.value(now) <= total

    @given(amount=st.floats(0, 1e6), periods=st.integers(0, 40))
    def test_property_decay_is_exact_halving(self, amount, periods):
        counter = DecayedCounter(period=10)
        counter.add(amount, now=0)
        expected = amount / (2 ** periods)
        assert counter.value(periods * 10) == pytest.approx(expected)


class TestCpuTimeAccount:
    def test_charges_accumulate(self):
        account = CpuTimeAccount()
        account.charge(1, 100)
        account.charge(1, 50)
        assert account.total(1) == 150

    def test_unknown_spu_is_zero(self):
        assert CpuTimeAccount().total(9) == 0

    def test_negative_charge_raises(self):
        with pytest.raises(AccountingError):
            CpuTimeAccount().charge(1, -5)

    def test_as_dict_is_a_copy(self):
        account = CpuTimeAccount()
        account.charge(1, 10)
        snapshot = account.as_dict()
        snapshot[1] = 999
        assert account.total(1) == 10
