"""Usage accounting primitives.

The disk-bandwidth metric in the paper (Section 3.3) is "sectors
transferred per second", approximated by a counter that is halved every
500 ms.  :class:`DecayedCounter` implements that scheme lazily: decay is
applied on access, based on how many whole decay periods have elapsed,
so no periodic event is needed and the value is identical to what an
eagerly-decayed counter would hold at period boundaries.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.units import MSEC


class AccountingError(ValueError):
    """Raised on illegal accounting operations."""


class DecayedCounter:
    """A counter halved once per ``period`` microseconds.

    The count is stored as a float so repeated halving keeps fractional
    residue (matching an exponential moving average at period
    granularity), but additions are in whole units.
    """

    def __init__(self, period: int = 500 * MSEC, now: int = 0):
        if period <= 0:
            raise AccountingError(f"decay period must be positive, got {period}")
        self.period = period
        self._value = 0.0
        self._last_decay = now

    def _decay_to(self, now: int) -> None:
        if now < self._last_decay:
            raise AccountingError(
                f"time went backwards: {now} < {self._last_decay}"
            )
        periods = (now - self._last_decay) // self.period
        if periods:
            # Halve once per elapsed period; skip the arithmetic once the
            # value has decayed to nothing.
            if self._value:
                if periods >= 64:
                    self._value = 0.0
                else:
                    self._value /= 1 << periods
            self._last_decay += periods * self.period

    def add(self, amount: float, now: int) -> None:
        """Add ``amount`` at simulated time ``now``."""
        if amount < 0:
            raise AccountingError(f"cannot add negative amount {amount}")
        self._decay_to(now)
        self._value += amount

    def value(self, now: int) -> float:
        """The decayed count as of simulated time ``now``."""
        self._decay_to(now)
        return self._value

    def reset(self, now: int) -> None:
        """Zero the counter."""
        self._value = 0.0
        self._last_decay = now


class CpuTimeAccount:
    """Accumulates CPU time consumed per SPU, for fairness metrics."""

    def __init__(self):
        self._by_spu: Dict[int, int] = {}

    def charge(self, spu_id: int, usecs: int) -> None:
        if usecs < 0:
            raise AccountingError(f"cannot charge negative time {usecs}")
        self._by_spu[spu_id] = self._by_spu.get(spu_id, 0) + usecs

    def total(self, spu_id: int) -> int:
        return self._by_spu.get(spu_id, 0)

    def as_dict(self) -> Dict[int, int]:
        return dict(self._by_spu)
