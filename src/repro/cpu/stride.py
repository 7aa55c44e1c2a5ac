"""Stride scheduling at SPU granularity.

The paper's related work (Section 5) contrasts performance isolation
with Waldspurger's *stride scheduling* [Wal95], which provides
proportional-share CPU allocation without partitioning: each client
holds tickets, accrues *pass* value in proportion to CPU consumed over
its ticket count, and the scheduler always runs the client with the
minimum pass.

This module implements stride scheduling hierarchically — SPUs are the
clients (tickets = their milli-CPU entitlement); within the chosen SPU
the standard IRIX priority discipline applies — as an alternative
:class:`~repro.cpu.scheduler.CpuScheduler` so experiments can compare
the two approaches on identical workloads.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.schemes import SchemeConfig
from repro.cpu.scheduler import CpuScheduler, Processor, SchedulableProcess

#: Pass values advance by STRIDE1 / tickets per microsecond of CPU.
STRIDE1 = 1 << 20


class StrideCpuScheduler(CpuScheduler):
    """Proportional-share CPU scheduling over SPUs, no partition.

    Differences from the partitioned scheduler:

    * any CPU may run any SPU's process — there are no home CPUs, no
      loans, and no revocations;
    * fairness comes from pass values: the backlogged SPU with the
      minimum pass runs next, so long-run CPU time converges to the
      ticket (entitlement) ratio;
    * an SPU that was blocked rejoins at the current minimum pass
      (the standard re-joining rule), so it cannot hoard credit.
    """

    __slots__ = ("tickets", "_pass")

    def __init__(self, ncpus: int, scheme: SchemeConfig, tickets: Dict[int, int]):
        # Deliberately no partition: stride is the global alternative.
        super().__init__(ncpus, _unpartitioned(scheme), partition=None)
        if not tickets:
            raise ValueError("stride scheduling needs at least one SPU")
        if any(t <= 0 for t in tickets.values()):
            raise ValueError("tickets must be positive")
        self.tickets = dict(tickets)
        self._pass: Dict[int, float] = {spu: 0.0 for spu in tickets}

    # --- stride bookkeeping -------------------------------------------------

    def set_tickets(self, spu_id: int, tickets: int) -> None:
        """Add or re-weight a client (dynamic SPUs)."""
        if tickets <= 0:
            raise ValueError("tickets must be positive")
        self.tickets[spu_id] = tickets
        if spu_id not in self._pass:
            self._pass[spu_id] = self._min_backlogged_pass()

    def _min_backlogged_pass(self) -> float:
        values = [
            self._pass[spu] for spu in self._pass
            if self.waiting(spu) or any(
                c.running is not None and c.running.spu_id == spu
                for c in self.processors
            )
        ]
        if not values:
            values = list(self._pass.values())
        return min(values, default=0.0)

    def pass_of(self, spu_id: int) -> float:
        return self._pass[spu_id]

    def on_usage(self, spu_id: int, used_us: int) -> None:
        """Advance the SPU's pass for CPU time it consumed."""
        if used_us < 0:
            raise ValueError("usage must be >= 0")
        tickets = self.tickets.get(spu_id)
        if tickets:
            self._pass[spu_id] += used_us * STRIDE1 / tickets

    # --- scheduling overrides ----------------------------------------------

    def enqueue(self, proc: SchedulableProcess) -> None:
        if proc.spu_id not in self.tickets:
            raise ValueError(f"SPU {proc.spu_id} holds no tickets")
        was_empty = not self.waiting(proc.spu_id)
        super().enqueue(proc)
        if was_empty:
            # Re-joining rule: a waking client starts at the current
            # minimum pass rather than the stale value it left with.
            floor = self._min_backlogged_pass()
            if self._pass[proc.spu_id] < floor:
                self._pass[proc.spu_id] = floor

    def pick(self, cpu: Processor, now: int) -> Optional[SchedulableProcess]:
        if not cpu.idle:
            raise ValueError(f"cpu{cpu.cpu_id} is not idle")
        if not self._nwaiting:
            return None
        # Only ticketed SPUs can queue (enqueue checks), so some SPU in
        # _pass is backlogged.
        backlogged = [spu for spu in self._pass if self.waiting(spu)]
        chosen = min(backlogged, key=lambda s: (self._pass[s], s))
        proc = self._pop_best(chosen, now)
        cpu.running = proc
        cpu.on_loan = False
        return proc

    def revocations(self) -> List[Processor]:
        """Stride has no loans; shares are enforced by pass ordering."""
        return []


def _unpartitioned(scheme: SchemeConfig) -> SchemeConfig:
    """The scheme with partitioning turned off (stride replaces it)."""
    from dataclasses import replace

    return replace(scheme, cpu_partitioned=False, cpu_lending=True)
