"""Per-SPU sharing policies (paper Section 2.1, third part of the SPU).

A sharing policy decides how much of an SPU's resources may be lent
to other SPUs.  The paper lists three archetypes, all implemented here:

* :class:`NeverShare` — keep everything; approximates separate machines
  or fixed quotas (the ``Quo`` scheme).
* :class:`AlwaysShare` — share everything with everyone regardless of
  idleness; approximates a stock SMP kernel.
* :class:`ShareIdle` — lend only idle resources, to any SPU that needs
  them; this is the policy the performance-isolation model uses.

Policies are stateless and consulted by the memory-sharing daemon;
they only answer questions, they do not move resources themselves.
CPU lending is carried by the scheme flags (``cpu_partitioned`` and
``cpu_lending`` in :mod:`repro.core.schemes`), not by a policy.
"""

from __future__ import annotations

import abc

from repro.core.resources import Resource
from repro.core.spu import SPU


class SharingPolicy(abc.ABC):
    """Decides lending behaviour for one SPU."""

    name: str = "abstract"

    @abc.abstractmethod
    def lendable(self, spu: SPU, resource: Resource) -> int:
        """How much of ``resource`` this SPU is willing to lend right now."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class NeverShare(SharingPolicy):
    """Never give up any resources (fixed-quota behaviour)."""

    name = "never"

    def lendable(self, spu: SPU, resource: Resource) -> int:
        return 0


class AlwaysShare(SharingPolicy):
    """Share all resources with everyone, idle or not (SMP behaviour).

    Lends the SPU's full entitlement; combined with every CPU/page being
    up for grabs this reproduces the unconstrained sharing of a stock
    SMP kernel.
    """

    name = "always"

    def lendable(self, spu: SPU, resource: Resource) -> int:
        return spu.levels[resource].entitled


class ShareIdle(SharingPolicy):
    """Share only idle resources, with any SPU that lacks resources.

    This is the performance-isolation policy: the lendable amount is
    the unused part of the entitlement, so a loan can never eat into
    resources the lender is actively using.
    """

    name = "share-idle"

    def lendable(self, spu: SPU, resource: Resource) -> int:
        return spu.levels[resource].idle
