"""The memory-sharing daemon (paper Section 3.2).

Periodically:

1. recomputes user-SPU *entitlements* from the pool left over after the
   kernel and shared SPUs' usage (their cost is effectively borne by
   everyone);
2. under PIso, redistributes idle pages — total free pages less the
   Reserve Threshold — to SPUs under memory pressure by raising their
   *allowed* level;
3. lowers the *allowed* level of SPUs whose loans should shrink (the
   lender changed its mind, or pressure moved elsewhere).  ``allowed``
   never drops below ``max(entitled, used)``; actually taking pages
   back is the page-stealing path's job, so revocation is gradual, as
   in the paper ("the memory re-allocation is temporary, and can be
   reset if the memory situation ... changes").

A pass that sees no denials is idempotent: it sets every entitlement
from page counts, the active SPU set and the contract, and floors every
cap at ``max(entitled, used)``.  So the timer skips the pass while the
daemon is *settled*: no denials are pending and the manager's
generation has not moved since the last full pass, which saw none.
Changes to the SPU set, the machine's capacity or an adaptive
contract's weights run a full pass through
:meth:`~repro.kernel.kernel.Kernel.rebalance_spus`, and a contract swap
calls :meth:`MemorySharingDaemon.unsettle`.  The timer itself keeps
firing, so event counts do not depend on the gate.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.contracts import SharingContract
from repro.core.spu import SPURegistry
from repro.mem.manager import MemoryManager
from repro.sim.engine import Engine, PeriodicTimer


class MemorySharingDaemon:
    """Recomputes entitlements and lends idle pages."""

    __slots__ = (
        "engine",
        "manager",
        "_contract",
        "registry",
        "_timer",
        "loans",
        "_settled",
    )

    def __init__(
        self,
        engine: Engine,
        manager: MemoryManager,
        contract: Callable[[], SharingContract],
    ):
        self.engine = engine
        self.manager = manager
        #: Returns the machine's current contract; the kernel's
        #: ``config.contract`` is the only copy.
        self._contract = contract
        self.registry: SPURegistry = manager.registry
        self._timer: Optional[PeriodicTimer] = None
        #: Loans granted (SPU id -> extra pages above entitlement), for
        #: reporting.
        self.loans: Dict[int, int] = {}
        #: ``manager.generation`` after the last full pass, if that pass
        #: saw no denials; None while a full pass is owed.
        self._settled: Optional[int] = None

    # --- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._timer is not None:
            raise RuntimeError("memory daemon already started")
        period = self.manager.scheme.params.memory_rebalance_period
        self._timer = self.engine.every(period, self._periodic)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # --- the rebalance pass ---------------------------------------------------

    @property
    def settled(self) -> bool:
        """Whether a pass now would change nothing.

        True while no denials are pending and no page count has moved
        since the last full pass, which saw none.
        """
        return not self.manager.denials and self.manager.generation == self._settled

    def unsettle(self) -> None:
        """Owe a full pass: an input outside page accounting changed."""
        self._settled = None

    def _periodic(self) -> None:
        """The timer callback: a full pass unless it would be a no-op."""
        if not self.settled:
            self.rebalance()

    def rebalance(self) -> None:
        """One full pass: re-entitle, then lend or revoke."""
        users = self.registry.active_user_spus()
        if not users:
            return
        self._update_entitlements(users)
        denials = self.manager.take_denials()
        if self.manager.scheme.mem_sharing:
            self._share_idle(users, denials)
        else:
            self._clamp_allowed(users)
        self.loans = {
            s.spu_id: s.memory().borrowed for s in users if s.memory().borrowed
        }
        # A lending pass is not a fixed point: the next one revokes.
        self._settled = None if denials else self.manager.generation

    def _update_entitlements(self, users) -> None:
        """Divide the non-kernel, non-shared pool among user SPUs.

        The allocation of pages to SPUs is "periodically updated to
        account for changes in the usage of the shared and kernel SPUs"
        — so entitlements shrink as shared/kernel usage grows.
        """
        pool = self.manager.user_pool()
        for spu, entitled in self._contract().entitlements(pool, users).items():
            levels = self.registry.get(spu).memory()
            levels.set_entitled(entitled)

    def _clamp_allowed(self, users) -> None:
        """No sharing (Quo): caps stay at the entitlement."""
        for spu in users:
            levels = spu.memory()
            levels.set_allowed(max(levels.entitled, levels.used))

    def _share_idle(self, users, denials: Dict[int, int]) -> None:
        """Lend idle pages to pressured SPUs; shrink stale loans."""
        pressured = [s for s in users if denials.get(s.spu_id, 0) > 0]

        # Idle supply: free memory beyond the Reserve Threshold.  It
        # needs no cap at the lenders' unused entitlement: entitlements
        # divide ``user_pool()`` exactly, which by page conservation is
        # the free list plus the active SPUs' use, so
        # sum(max(0, entitled - used)) >= free pages.
        excess = max(0, self.manager.free_pages - self.manager.reserve_pages)

        # First shrink every cap to its floor; loans are then re-granted
        # from scratch, which both revokes stale loans and keeps the
        # bookkeeping simple.
        for spu in users:
            levels = spu.memory()
            levels.set_allowed(max(levels.entitled, levels.used))

        if excess <= 0 or not pressured:
            return
        # Split the excess among pressured borrowers, weighted by their
        # recent denial counts (a needier SPU gets a larger loan).
        total_denials = sum(denials[s.spu_id] for s in pressured)
        for spu in pressured:
            share = round(excess * denials[spu.spu_id] / total_denials)
            if share <= 0:
                continue
            levels = spu.memory()
            levels.set_allowed(levels.allowed + share)
