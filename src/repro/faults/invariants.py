"""Conservation-law watchdog for degraded machines.

Fault handling rearranges ownership — pages are decommissioned, CPU
partitions rebuilt, disk queues handed between drives — and a bug in
any of those paths tends to *leak* (pages charged to nobody, CPU time
from offline processors, requests stranded on dead drives) rather than
crash.  The watchdog re-derives the global invariants from scratch on
every clock tick, so a leak is caught within 10 ms of simulated time
of its introduction.

Checked invariants:

* **ledger sanity**, **page conservation** and **CPU conservation** —
  the laws it shares with SIMSAN, stated once in
  :mod:`repro.faults.laws`;
* **no starvation** — no runnable process waits longer than
  :data:`STARVATION_BOUND_US` (livelock in the
  retry/failover/renegotiation machinery would show up here);
* **dead drives are quiet** — a failed drive holds no queued or
  in-flight work.

Every breach is recorded as a :class:`Violation`; SIMSAN is the checker
that raises at the corrupt event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.faults.laws import breaches
from repro.kernel.kernel import Kernel
from repro.kernel.process import ProcessState
from repro.sim.engine import PeriodicTimer
from repro.sim.units import SEC

#: No runnable process may wait longer than this for a CPU.
STARVATION_BOUND_US = 10 * SEC


@dataclass(frozen=True)
class Violation:
    """One recorded invariant breach."""

    time_us: int
    name: str
    detail: str


class InvariantWatchdog:
    """Re-checks kernel-wide invariants every clock tick."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.violations: List[Violation] = []
        self.checks_run = 0
        self._timer: Optional[PeriodicTimer] = None

    def start(self) -> None:
        if self._timer is not None:
            raise RuntimeError("watchdog already started")
        kernel = self.kernel
        self._timer = kernel.engine.every(
            kernel.scheme.params.clock_tick, self.check
        )

    # --- the checks --------------------------------------------------------

    def check(self) -> None:
        """Run every invariant once (also callable directly from tests)."""
        self.checks_run += 1
        kernel = self.kernel
        now = kernel.engine.now

        for name, detail in breaches(kernel):
            self._flag(name, detail)

        for proc in kernel.processes.values():
            if proc.state is not ProcessState.RUNNABLE:
                continue
            waited = now - proc.runnable_since
            if waited > STARVATION_BOUND_US:
                self._flag(
                    "starvation",
                    f"pid {proc.pid} runnable for {waited}us"
                    f" (bound {STARVATION_BOUND_US}us)",
                )

        for drive in kernel.drives:
            if drive.alive:
                continue
            if drive.queue or drive.busy or drive._in_service is not None:
                self._flag(
                    "dead-drive-quiet",
                    f"dead disk {drive.disk_id} still holds work"
                    f" (queue={len(drive.queue)}, busy={drive.busy})",
                )

    def _flag(self, name: str, detail: str) -> None:
        self.violations.append(Violation(self.kernel.engine.now, name, detail))


#: The overload guard checks every this many clock ticks.
GUARD_PERIOD_TICKS = 10
#: Pressure per check (denials plus throttled and rejected I/O) that
#: makes an SPU hot.
PRESSURE_THRESHOLD = 40
#: Consecutive hot checks before an SPU's admission limits are halved.
THROTTLE_AFTER = 2
#: Consecutive hot checks before its largest process is OOM-killed.
KILL_AFTER = 4


@dataclass(frozen=True)
class Escalation:
    """One overload-guard action against an abusive SPU."""

    time_us: int
    spu_id: int
    #: ``"throttle"`` (admission limits halved) or ``"kill"`` (the
    #: SPU's largest memory offender was OOM-killed).
    stage: str
    detail: str


class OverloadGuard:
    """Detect → throttle → kill escalation against abusive SPUs.

    The watchdog above checks that the kernel's *books* balance; this
    guard checks that no SPU is *abusing* the kernel's resource paths.
    Each period it sums, per user SPU, the pressure the SPU put on the
    kernel since the last check:

    * memory-allocation denials (a thrasher past its working set),
    * denied ``Spawn`` syscalls (a fork bomb at the process limit),
    * file syscalls delayed or failed by admission control (an I/O
      flood at the in-flight budget).

    It checks every :data:`GUARD_PERIOD_TICKS` clock ticks.  An SPU
    whose pressure reaches :data:`PRESSURE_THRESHOLD` is *hot*.
    Staying hot for :data:`THROTTLE_AFTER` consecutive checks halves
    its admission limits (:meth:`Kernel.throttle_spu`); staying hot for
    :data:`KILL_AFTER` checks OOM-kills its largest process — inside
    the offending SPU only — and the ladder re-arms, so a persistently
    abusive SPU is killed down until its pressure subsides.  An SPU
    that goes quiet is unthrottled and its ladder resets.  Every
    action is recorded in :attr:`escalations`.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.escalations: List[Escalation] = []
        self.checks_run = 0
        #: Consecutive hot periods per SPU.
        self._hot: Dict[int, int] = {}
        #: Pressure totals per SPU at the previous check.
        self._seen: Dict[int, int] = {}
        self._timer: Optional[PeriodicTimer] = None

    def start(self) -> None:
        if self._timer is not None:
            raise RuntimeError("guard already started")
        kernel = self.kernel
        self._timer = kernel.engine.every(
            GUARD_PERIOD_TICKS * kernel.scheme.params.clock_tick, self.check
        )

    def _pressure_total(self, spu_id: int) -> int:
        kernel = self.kernel
        return (
            kernel.memory.total_denials.get(spu_id, 0)
            + kernel.spawn_denials.get(spu_id, 0)
            + kernel.io_throttled.get(spu_id, 0)
            + kernel.io_rejected.get(spu_id, 0)
        )

    def check(self) -> None:
        """Run one escalation pass (also callable directly from tests)."""
        self.checks_run += 1
        kernel = self.kernel
        now = kernel.engine.now
        for spu in kernel.registry.active_user_spus():
            spu_id = spu.spu_id
            total = self._pressure_total(spu_id)
            delta = total - self._seen.get(spu_id, 0)
            self._seen[spu_id] = total
            if delta < PRESSURE_THRESHOLD:
                if self._hot.get(spu_id):
                    self._hot[spu_id] = 0
                    if kernel.spu_throttled(spu_id):
                        kernel.unthrottle_spu(spu_id)
                continue
            hot = self._hot.get(spu_id, 0) + 1
            self._hot[spu_id] = hot
            if hot == THROTTLE_AFTER:
                kernel.throttle_spu(spu_id)
                self.escalations.append(Escalation(
                    now, spu_id, "throttle",
                    f"SPU {spu_id} hot for {hot} checks"
                    f" (pressure {delta}/check); admission limits halved",
                ))
            elif hot >= KILL_AFTER:
                victim = kernel.oom_kill(spu_id)
                detail = (
                    f"SPU {spu_id} still hot after throttling;"
                    f" killed pid {victim.pid} ({victim.name})"
                    if victim is not None
                    else f"SPU {spu_id} still hot but has no process to kill"
                )
                self.escalations.append(Escalation(now, spu_id, "kill", detail))
                # Re-arm one rung below the kill threshold: if the SPU
                # stays abusive, another process goes next period.
                self._hot[spu_id] = KILL_AFTER - 1
