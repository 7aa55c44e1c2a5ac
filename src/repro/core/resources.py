"""Resources managed by performance isolation, and the three-level model.

The paper (Section 2.3) gives each SPU three per-resource levels:

* **entitled** — the share the SPU gets from the machine's sharing
  contract; its guaranteed minimum.
* **allowed** — the cap the SPU may currently use.  The sharing policy
  raises it above *entitled* when idle resources are lent to the SPU,
  and lowers it (never below *entitled*) when loans are revoked.
* **used** — what the SPU is consuming right now.

Units are resource-specific: milli-CPUs for CPU time (so fractional
CPUs can be expressed exactly), pages for memory, and share *weights*
for disk bandwidth (bandwidth is a rate, so "used" is tracked by a
decayed sector counter elsewhere).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Resource(enum.Enum):
    """A machine resource subject to performance isolation."""

    CPU = "cpu"
    MEMORY = "memory"
    DISK_BW = "disk_bw"


#: One CPU expressed in milli-CPUs; entitlements are integral multiples
#: of fractions of this, so an eighth of 3 CPUs is exact.
MILLI_CPU = 1000


class ResourceLevelError(ValueError):
    """Raised when a level update would violate the model's invariants."""


@dataclass
class ResourceLevels:
    """The entitled/allowed/used triple for one resource of one SPU.

    Invariants (enforced on every mutation):

    * ``0 <= entitled``
    * ``entitled <= allowed`` — lending never dips below the guarantee,
      which is exactly what makes the guarantee a guarantee.
    * ``0 <= used <= allowed`` — isolation: usage may not exceed the cap.
    """

    entitled: int = 0
    allowed: int = 0
    used: int = 0

    def __post_init__(self) -> None:
        self._check()

    def _check(self) -> None:
        if self.entitled < 0:
            raise ResourceLevelError(f"entitled must be >= 0, got {self.entitled}")
        if self.allowed < self.entitled:
            raise ResourceLevelError(
                f"allowed ({self.allowed}) below entitled ({self.entitled})"
            )
        if not 0 <= self.used <= self.allowed:
            raise ResourceLevelError(
                f"used ({self.used}) outside [0, allowed={self.allowed}]"
            )

    # --- queries -----------------------------------------------------------

    @property
    def borrowed(self) -> int:
        """How far the cap has been raised above the entitlement."""
        return self.allowed - self.entitled

    @property
    def over_entitlement(self) -> bool:
        """True when current usage relies on borrowed resources."""
        return self.used > self.entitled

    # --- mutations -----------------------------------------------------------

    def set_entitled(self, value: int) -> None:
        """Reset the contractual share (e.g. when SPUs come and go)."""
        if value < 0:
            raise ResourceLevelError(f"entitled must be >= 0, got {value}")
        self.entitled = value
        if self.allowed < value:
            self.allowed = value
        self._check()

    def set_allowed(self, value: int) -> None:
        """Move the cap: lending raises it, revocation lowers it."""
        if value < self.entitled:
            raise ResourceLevelError(
                f"allowed ({value}) may not drop below entitled ({self.entitled})"
            )
        if value < self.used:
            raise ResourceLevelError(
                f"allowed ({value}) may not drop below current used ({self.used});"
                " reclaim usage first"
            )
        self.allowed = value

    def can_use(self, amount: int = 1) -> bool:
        """Would acquiring ``amount`` more stay within the cap?"""
        return self.used + amount <= self.allowed

    def acquire(self, amount: int = 1) -> None:
        """Record usage of ``amount``; raises if it would exceed the cap."""
        if amount < 0:
            raise ResourceLevelError(f"cannot acquire a negative amount ({amount})")
        if self.used + amount > self.allowed:
            raise ResourceLevelError(
                f"acquire({amount}) would exceed allowed={self.allowed}"
                f" (used={self.used})"
            )
        self.used += amount

    def release(self, amount: int = 1) -> None:
        """Record release of ``amount`` of the resource."""
        if amount < 0:
            raise ResourceLevelError(f"cannot release a negative amount ({amount})")
        if amount > self.used:
            raise ResourceLevelError(
                f"release({amount}) exceeds current used ({self.used})"
            )
        self.used -= amount
