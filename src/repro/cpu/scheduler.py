"""SPU-aware CPU scheduling (paper Section 3.1).

The scheduler owns the run queues and the processor table; the kernel
drives it (dispatching is the kernel's job because only the kernel
knows how long a process will run before blocking or faulting).

Scheme behaviour:

* **SMP** — one logical queue; any CPU picks the globally
  best-priority runnable process.
* **Quo** — CPUs pick only from their home SPU; an idle CPU with no
  home work stays idle.
* **PIso** — like Quo, but an idle CPU may *borrow*: it runs the best
  foreign runnable process, and the loan is revoked — at the next
  clock tick, bounding revocation latency at 10 ms — as soon as a
  home-SPU process is runnable with no available home CPU.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Protocol

from repro.core.schemes import SchemeConfig
from repro.cpu.partition import CpuPartition
from repro.cpu.priorities import (
    USAGE_HALF_LIFE,
    USAGE_WEIGHT_PER_MS,
    ProcessPriority,
)
from repro.sim.units import MSEC


class SchedulableProcess(Protocol):
    """What the scheduler needs to know about a process."""

    pid: int
    spu_id: int
    priority: ProcessPriority


class Processor:
    """One CPU's scheduling state."""

    __slots__ = ("cpu_id", "running", "on_loan", "no_loan_until", "online")

    def __init__(self, cpu_id: int):
        self.cpu_id = cpu_id
        self.running: Optional[SchedulableProcess] = None
        #: Set when the running process belongs to a foreign SPU.
        self.on_loan: bool = False
        #: After a revocation, no new loans before this time (damps
        #: loan ping-ponging; 0 = no hold-down in effect).
        self.no_loan_until: int = 0
        #: Cleared by CPU hot-remove; an offline CPU never reports
        #: itself idle, so no dispatch path will hand it work.
        self.online: bool = True

    @property
    def idle(self) -> bool:
        return self.online and self.running is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pid = self.running.pid if self.running else None
        state = "" if self.online else " OFFLINE"
        return f"<cpu{self.cpu_id} running={pid} loan={self.on_loan}{state}>"


class CpuScheduler:
    """Run queues plus the pick/lend/revoke logic."""

    __slots__ = (
        "scheme", "partition", "processors", "_queues", "_nwaiting",
        "loans_granted", "loans_revoked", "eligibility",
    )

    def __init__(
        self,
        ncpus: int,
        scheme: SchemeConfig,
        partition: Optional[CpuPartition] = None,
    ):
        if scheme.cpu_partitioned and partition is None:
            raise ValueError(f"scheme {scheme.name} requires a CPU partition")
        self.scheme = scheme
        self.partition = partition
        self.processors = [Processor(i) for i in range(ncpus)]
        #: Waiting (runnable but not running) processes per SPU.  Only
        #: enqueue, dequeue and the _pop_* helpers touch the queues, and
        #: each keeps _nwaiting, their total, in step.
        self._queues: Dict[int, List[SchedulableProcess]] = {}
        self._nwaiting = 0
        #: Loan/revocation counters for reporting.
        self.loans_granted = 0
        self.loans_revoked = 0
        #: Optional dispatch filter (e.g. gang co-scheduling): a queued
        #: process is only considered when this returns True.
        self.eligibility: Optional[Callable[[SchedulableProcess, int], bool]] = None

    def online_processors(self) -> List[Processor]:
        """CPUs not removed by a hardware fault, in id order."""
        return [c for c in self.processors if c.online]

    # --- run queue ----------------------------------------------------------

    def enqueue(self, proc: SchedulableProcess) -> None:
        """Add a runnable process to its SPU's queue."""
        queue = self._queues.setdefault(proc.spu_id, [])
        if proc in queue:
            raise ValueError(f"process {proc.pid} already queued")
        queue.append(proc)
        self._nwaiting += 1

    def dequeue(self, proc: SchedulableProcess) -> None:
        """Remove a process from its queue (e.g. on kill)."""
        queue = self._queues.get(proc.spu_id, [])
        if proc in queue:
            queue.remove(proc)
            self._nwaiting -= 1

    def waiting(self, spu_id: Optional[int] = None) -> int:
        if spu_id is not None:
            return len(self._queues.get(spu_id, []))
        return self._nwaiting

    def index_drift(self) -> Optional[str]:
        """Where the run queues break their invariants; ``None`` if nowhere.

        The waiting count must equal the processes in the queues, and
        each queued process must appear once, in its own SPU's queue.
        SIMSAN's ``runqueue`` law calls this after events.
        """
        queued = set()
        total = 0
        for spu_id, queue in self._queues.items():
            for proc in queue:
                if proc.spu_id != spu_id:
                    return (f"process {proc.pid} of SPU {proc.spu_id} is"
                            f" queued on SPU {spu_id}")
                if proc.pid in queued:
                    return f"process {proc.pid} is queued twice"
                queued.add(proc.pid)
            total += len(queue)
        if total != self._nwaiting:
            return f"waiting count is {self._nwaiting}, the queues hold {total}"
        return None

    def _best(self, procs: List[SchedulableProcess], now: int) -> SchedulableProcess:
        # Equivalent to min() keyed on (priority.effective(now), pid),
        # written as a plain loop with ProcessPriority.effective inlined:
        # this runs for every candidate on every dispatch and dominated
        # the scheduler's profile.  The decay arithmetic is kept
        # expression-identical to ProcessPriority.effective so both
        # paths produce the same floats.
        best = None
        best_eff = 0.0
        best_pid = 0
        pow_ = math.pow
        for p in procs:
            pr = p.priority
            kp = pr.kernel_priority
            if kp is not None:
                eff = float(kp)
            else:
                stamp = pr._stamp
                if now > stamp:
                    # 0.0 times any decay factor is 0.0: skipping the
                    # pow() call for never-charged (or fully decayed-
                    # to-zero) priorities changes no float.
                    recent = pr._recent_us
                    if recent != 0.0:
                        elapsed = now - stamp
                        pr._recent_us = recent * pow_(0.5, elapsed / USAGE_HALF_LIFE)
                    pr._stamp = now
                eff = pr.base + (pr._recent_us / MSEC) * USAGE_WEIGHT_PER_MS
            if (
                best is None
                or eff < best_eff
                or (eff == best_eff and p.pid < best_pid)
            ):
                best = p
                best_eff = eff
                best_pid = p.pid
        return best

    def _eligible(self, procs: List[SchedulableProcess], now: int) -> List[SchedulableProcess]:
        if self.eligibility is None:
            return procs
        return [p for p in procs if self.eligibility(p, now)]  # simlint: dynamic=callback-field

    def _pop_best(self, spu_id: int, now: int) -> Optional[SchedulableProcess]:
        queue = self._queues.get(spu_id)
        if queue and self.eligibility is not None:
            queue = self._eligible(queue, now)
        if not queue:
            return None
        best = self._best(queue, now)
        self._queues[spu_id].remove(best)
        self._nwaiting -= 1
        return best

    def _pop_best_foreign(self, home: Optional[int], now: int) -> Optional[SchedulableProcess]:
        candidates = self._eligible(
            [p for spu_id, q in self._queues.items() if spu_id != home for p in q],
            now,
        )
        if not candidates:
            return None
        best = self._best(candidates, now)
        self._queues[best.spu_id].remove(best)
        self._nwaiting -= 1
        return best

    # --- dispatch decisions -----------------------------------------------------

    def home_of(self, cpu: Processor) -> Optional[int]:
        if self.partition is None:
            return None
        return self.partition.home_of(cpu.cpu_id)

    def pick(self, cpu: Processor, now: int) -> Optional[SchedulableProcess]:
        """Choose the next process for an idle CPU (marks it running)."""
        # Processor.idle and home_of, read inline: this runs on every
        # dispatch.
        if cpu.running is not None or not cpu.online:
            raise ValueError(f"cpu{cpu.cpu_id} is not idle")
        if not self._nwaiting:
            # Nothing queued: every branch below would find no candidate
            # and touch no priority, so skip the queue walks.
            return None
        if not self.scheme.cpu_partitioned:
            proc = self._pop_best_foreign(home=None, now=now)
            loan = False
        else:
            home = self.partition._home.get(cpu.cpu_id)
            proc = self._pop_best(home, now) if home is not None else None
            loan = False
            if proc is None and self.scheme.cpu_lending and now >= cpu.no_loan_until:
                proc = self._pop_best_foreign(home, now)
                loan = proc is not None
        if proc is None:
            return None
        cpu.running = proc
        cpu.on_loan = loan
        if loan:
            self.loans_granted += 1
        return proc

    def release(self, cpu: Processor) -> None:
        """The running process left the CPU (blocked, exited, preempted)."""
        cpu.running = None
        cpu.on_loan = False

    def on_usage(self, spu_id: int, used_us: int) -> None:
        """Usage feedback hook; the stride subclass advances passes."""
        return None

    def find_cpu_for(
        self, proc: SchedulableProcess, now: int = 0
    ) -> Optional[Processor]:
        """An idle CPU that could run ``proc`` right now, if any.

        Home CPUs are preferred; with lending enabled any idle CPU
        whose loan hold-down has expired qualifies.  Used to wake a CPU
        when a process becomes runnable rather than waiting for the
        next natural dispatch.
        """
        if not self.scheme.cpu_partitioned:
            for cpu in self.processors:
                if cpu.running is None and cpu.online:
                    return cpu
            return None
        # One pass, no list: the first idle home CPU wins; failing
        # that, the first idle CPU open to a loan.
        home_get = self.partition._home.get
        spu_id = proc.spu_id
        lending = self.scheme.cpu_lending
        lendable = None
        for cpu in self.processors:
            if cpu.running is None and cpu.online:
                if home_get(cpu.cpu_id) == spu_id:
                    return cpu
                if lending and lendable is None and now >= cpu.no_loan_until:
                    lendable = cpu
        return lendable

    # --- loan revocation ---------------------------------------------------------

    def revocations(self) -> List[Processor]:
        """CPUs whose loans must be revoked at this clock tick.

        A loan is revoked when the loaning (home) SPU has a runnable
        process waiting and no available home CPU to run it.  One CPU
        is revoked per waiting process.
        """
        if not (self.scheme.cpu_partitioned and self.scheme.cpu_lending):
            return []
        to_revoke: List[Processor] = []
        # This scan runs on every clock tick; one pass over the
        # processor table per queue, with the partition's home map
        # bound locally (it is rebuilt — rebound — on CPU hot-remove,
        # so it must not be cached across calls).
        home_get = self.partition._home.get
        for spu_id, queue in self._queues.items():
            if not queue:
                continue
            # Idle home CPUs will be dispatched anyway; only loaned-out
            # ones need revoking.
            loaned: List[Processor] = []
            idle_home = 0
            for c in self.processors:
                if home_get(c.cpu_id) == spu_id:
                    if c.on_loan:
                        loaned.append(c)
                    elif c.online and c.running is None:
                        idle_home += 1
            needed = len(queue) - idle_home
            for cpu in loaned[: max(0, needed)]:
                to_revoke.append(cpu)
        for cpu in to_revoke:
            self.loans_revoked += 1
        return to_revoke

    # --- time-partition rotation ---------------------------------------------------

    def rotate_time_shared(self) -> List[Processor]:
        """Advance time-shared CPUs; returns CPUs whose home changed."""
        if self.partition is None:
            return []
        changed = self.partition.tick()
        return [self.processors[c] for c in changed]
