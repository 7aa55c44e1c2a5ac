"""Physical memory management with per-SPU page accounting.

The manager is the single source of pages: process anonymous memory and
the file buffer cache both allocate here (it implements the
filesystem's ``PageProvider`` protocol).  Per the paper (Section 3.2):

* every allocation records the requesting SPU's id and bumps its page
  count (the *used* level);
* with isolation enabled, a request is denied once the SPU has used its
  *allowed* pages — even if the machine still has free memory;
* without isolation (the SMP scheme) a request fails only when there is
  no free page in the whole system;
* the kernel SPU is never denied.

Denials are counted per SPU between rebalance periods; the sharing
daemon uses them as the memory-pressure signal.

Every change to a page count (a grant, a free, a transfer, pages
leaving or rejoining the machine) bumps :attr:`MemoryManager.generation`;
a denial does not, since the daemon reads :attr:`MemoryManager.denials`
directly.  The sharing daemon skips a periodic pass while neither has
moved since its last full pass.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from repro.core.schemes import SchemeConfig
from repro.core.spu import SPU, SPURegistry


class OutOfMemoryError(RuntimeError):
    """Raised when an internal invariant on the page pool breaks."""


# One MemoryManager per kernel; allocation speed is bounded by the
# ResourceLevels checks, not attribute lookup on the manager.
class MemoryManager:  # simlint: disable=SL401
    """The physical page pool, charged per SPU."""

    def __init__(
        self,
        registry: SPURegistry,
        total_pages: int,
        scheme: SchemeConfig,
        kernel_pages: int = 0,
        rng: Optional[random.Random] = None,
    ):
        if total_pages <= 0:
            raise ValueError("machine must have at least one page")
        if not 0 <= kernel_pages < total_pages:
            raise ValueError(
                f"kernel_pages ({kernel_pages}) must leave user pages"
                f" out of {total_pages}"
            )
        self.registry = registry
        self.total_pages = total_pages
        self.scheme = scheme
        self.free_pages = total_pages
        self._rng = rng if rng is not None else random.Random(0)
        #: Allocation denials per SPU since the last rebalance; the
        #: sharing daemon's memory-pressure signal.
        self.denials: Dict[int, int] = {}
        #: Cumulative denials per SPU over the whole run — never reset,
        #: so the overload guard can diff them across its periods even
        #: while the sharing daemon consumes :attr:`denials`.
        self.total_denials: Dict[int, int] = {}
        #: Pages removed by hardware faults over the run.
        self.decommissioned = 0
        #: Bumped by every page-count change; the sharing daemon's
        #: "has anything moved" signal.
        self.generation = 0

        # The kernel and shared SPUs are capped only by the machine.
        for spu in (registry.kernel_spu, registry.shared_spu):
            spu.memory().set_allowed(total_pages)

        # Boot-time kernel code/data pages.
        if kernel_pages:
            for _ in range(kernel_pages):
                if not self.try_allocate(registry.kernel_spu.spu_id):
                    raise OutOfMemoryError("kernel pages exceed machine memory")

    # --- derived quantities ------------------------------------------------

    @property
    def reserve_pages(self) -> int:
        """Pages kept free to hide memory revocation cost (Section 3.2)."""
        return int(self.total_pages * self.scheme.params.reserve_threshold)

    def user_pool(self) -> int:
        """Pages divisible among *active* user SPUs.

        Total memory less kernel and shared usage, and less pages still
        held by suspended/inactive user SPUs (e.g. their leftover
        buffer-cache blocks) — entitling active SPUs to pages someone
        else holds would over-commit the machine.
        """
        active_ids = {s.spu_id for s in self.registry.active_user_spus()}
        unavailable = sum(
            spu.memory().used
            for spu in self.registry.all_spus()
            if spu.spu_id not in active_ids and spu.is_user
        )
        kernel_used = self.registry.kernel_spu.memory().used
        shared_used = self.registry.shared_spu.memory().used
        return max(0, self.total_pages - kernel_used - shared_used - unavailable)

    def used_by(self, spu_id: int) -> int:
        return self.registry.get(spu_id).memory().used

    # --- PageProvider protocol -----------------------------------------------

    def try_allocate(self, spu_id: int) -> bool:
        """Charge one page to ``spu_id``; False on denial.

        This is the hottest call in the memory subsystem (every page
        grant lands here), so the :meth:`_capped`/``can_use`` pair is
        inlined.
        """
        spu = self.registry.get(spu_id)
        if self.free_pages <= 0:
            self._deny(spu_id)
            return False
        levels = spu.memory()
        if (
            self.scheme.mem_limits
            and spu.is_user
            and levels.used + 1 > levels.allowed
        ):
            self._deny(spu_id)
            return False
        levels.acquire(1)
        self.free_pages -= 1
        self.generation += 1
        return True

    def try_allocate_n(self, spu_id: int, n: int) -> int:
        """Charge up to ``n`` pages to ``spu_id``; returns pages granted.

        Exactly equivalent to that many successful :meth:`try_allocate`
        calls — the grant is capped by the free pool and (under memory
        limits) the SPU's headroom, and **no denial is recorded**: a
        caller wanting more than was granted must fall back to the
        per-page path, whose first failure records the one denial the
        per-page loop would have.
        """
        if n <= 0:
            return 0
        grant = n if n < self.free_pages else self.free_pages
        if grant <= 0:
            return 0
        spu = self.registry.get(spu_id)
        levels = spu.memory()
        if self.scheme.mem_limits and spu.is_user:
            headroom = levels.allowed - levels.used
            if headroom < grant:
                grant = headroom
            if grant <= 0:
                return 0
        levels.acquire(grant)
        self.free_pages -= grant
        self.generation += 1
        return grant

    def _deny(self, spu_id: int) -> None:
        self.denials[spu_id] = self.denials.get(spu_id, 0) + 1
        self.total_denials[spu_id] = self.total_denials.get(spu_id, 0) + 1

    def free(self, spu_id: int) -> None:
        """Return one page charged to ``spu_id``."""
        self.registry.get(spu_id).memory().release(1)
        self.free_pages += 1
        self.generation += 1
        if self.free_pages > self.total_pages:  # pragma: no cover - invariant
            raise OutOfMemoryError("freed more pages than the machine has")

    def free_n(self, spu_id: int, n: int) -> None:
        """Return ``n`` pages charged to ``spu_id`` in one call."""
        if n <= 0:
            return
        self.registry.get(spu_id).memory().release(n)
        self.free_pages += n
        self.generation += 1
        if self.free_pages > self.total_pages:  # pragma: no cover - invariant
            raise OutOfMemoryError("freed more pages than the machine has")

    def transfer(self, from_spu: int, to_spu: int) -> bool:
        """Move one page's charge between SPUs (shared-page marking).

        The destination's cap is deliberately not enforced: marking a
        page shared must not fail, and the shared/kernel SPUs are only
        capped by the machine.
        """
        source = self.registry.get(from_spu)
        dest = self.registry.get(to_spu)
        if source.memory().used <= 0:
            return False
        source.memory().release(1)
        levels = dest.memory()
        if not levels.can_use(1):
            levels.set_allowed(levels.used + 1)
        levels.acquire(1)
        self.generation += 1
        return True

    def _capped(self, spu: SPU) -> bool:
        """Whether per-SPU limits apply to this SPU under this scheme."""
        return self.scheme.mem_limits and spu.is_user

    # --- hardware faults -----------------------------------------------------

    def decommission(self, pages: int, evict: Optional[Callable[[], bool]] = None) -> int:
        """Remove ``pages`` physical pages from the machine (module loss).

        Free pages go first.  When the free pool runs dry, ``evict``
        is asked to free one in-use page per call (the kernel's
        page-stealing path: the victim is charged, its page moves to
        swap, and the process re-faults later).  Stops early — and
        returns how many pages actually left — if eviction cannot make
        progress or the machine would drop to zero pages.
        """
        if pages < 0:
            raise ValueError(f"cannot decommission {pages} pages")
        removed = 0
        while removed < pages and self.total_pages > 1:
            if self.free_pages <= 0:
                if evict is None or not evict():  # simlint: dynamic=continuation
                    break
                if self.free_pages <= 0:
                    break
            self.free_pages -= 1
            self.total_pages -= 1
            removed += 1
        self.decommissioned += removed
        if removed:
            self.generation += 1
        return removed

    def recommission(self, pages: int) -> None:
        """Return ``pages`` physical pages to the machine (module repair)."""
        if pages < 0:
            raise ValueError(f"cannot recommission {pages} pages")
        self.total_pages += pages
        self.free_pages += pages
        if pages:
            self.generation += 1

    # --- pressure signals ----------------------------------------------------

    def take_denials(self) -> Dict[int, int]:
        """Return and reset the per-SPU denial counts."""
        out = self.denials
        self.denials = {}
        return out

    def under_pressure(self, spu: SPU) -> bool:
        """An SPU at (or over) its cap with recent denials wants pages."""
        return self.denials.get(spu.spu_id, 0) > 0

    # --- victim selection for page stealing --------------------------------------

    def victim_spu(self, requester_id: int) -> Optional[SPU]:
        """Whose page should be stolen so ``requester`` can allocate?

        * Isolation schemes: if the requester is at its own cap, it must
          steal from itself.  If the machine is out of free pages while
          the requester still has headroom, the pages are held by a
          *borrower* — revoke from the user SPU borrowing the most.
        * SMP: global replacement — any page in the machine is fair
          game, so the victim SPU is drawn at random weighted by pages
          held, approximating a global clock/LRU sweep (this is exactly
          how a heavy job hurts a light one on a stock kernel).
        """
        requester = self.registry.get(requester_id)
        users = self.registry.active_user_spus()
        if not users:
            return None
        if self._capped(requester):
            if not requester.memory().can_use(1):
                return requester if requester.memory().used > 0 else None
            borrowers = [s for s in users if s.memory().over_entitlement]
            if borrowers:
                return max(
                    borrowers,
                    key=lambda s: (s.memory().used - s.memory().entitled, -s.spu_id),
                )
        holders = [s for s in users if s.memory().used > 0]
        if not holders:
            return None
        weights = [s.memory().used for s in holders]
        return self._rng.choices(holders, weights=weights, k=1)[0]
