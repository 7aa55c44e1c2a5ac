"""The simulated operating system kernel.

The :class:`Kernel` assembles the whole machine from a
:class:`~repro.kernel.machine.MachineConfig` — CPUs and their
scheduler, the page pool, one drive+volume per disk, the buffer-cached
filesystem — and runs processes written as syscall-yielding generators.

The lifecycle of an experiment::

    kernel = Kernel(MachineConfig(ncpus=8, memory_mb=44, scheme=piso_scheme()))
    spu = kernel.create_spu("user1")
    kernel.boot()                      # divide the machine per contract
    src = kernel.fs.create(0, "src.c", 64 * KB)
    kernel.spawn(my_behavior(src), spu)
    kernel.run()                       # until all processes exit
"""

from __future__ import annotations

import dataclasses
import itertools
from functools import partial
from typing import Dict, List, Optional

from repro.core.accounting import CpuTimeAccount
from repro.core.resources import MILLI_CPU, Resource
from repro.core.spu import SPU, SPURegistry
from repro.cpu.partition import CpuPartition
from repro.cpu.scheduler import CpuScheduler, Processor
from repro.disk.drive import DiskDrive, SpuBandwidthLedger
from repro.disk.request import DiskOp, DiskRequest
from repro.disk.schedulers import make_scheduler
from repro.fs.buffercache import BufferCache
from repro.fs.filesystem import FileSystem
from repro.fs.layout import Volume
from repro.kernel.machine import MachineConfig
from repro.kernel.process import Process, ProcessState
from repro.kernel.syscalls import (
    Acquire,
    BarrierWait,
    Behavior,
    Checkpoint,
    Compute,
    ReadFile,
    Release,
    SendNetwork,
    SetWorkingSet,
    Sleep,
    Spawn,
    WaitChildren,
    WriteFile,
    WriteMetadata,
)
from repro.net.link import NetByteLedger, NetworkLink
from repro.net.schedulers import make_link_scheduler
from repro.mem.manager import MemoryManager
from repro.mem.pageout import PageoutDaemon
from repro.mem.sharing import MemorySharingDaemon
from repro.mem.workingset import WorkingSetModel
from repro.sim.engine import Engine
from repro.sim.units import SECTORS_PER_PAGE


class KernelError(RuntimeError):
    """Raised for kernel API misuse (spawning before boot, etc.)."""


# Singleton facade holding ~40 subsystem references; __slots__ would
# buy nothing per-instance and break test monkeypatching.
class Kernel:  # simlint: disable=SL401
    """Boots the machine and interprets process behaviour."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.scheme = config.scheme
        self.engine = Engine(config.seed)
        self.registry = SPURegistry()
        self.memory = MemoryManager(
            self.registry,
            config.total_pages,
            config.scheme,
            kernel_pages=config.boot_kernel_pages,
            rng=self.engine.fork_rng("mem-victim"),
        )

        # --- disks and filesystem ----------------------------------------
        self.drives: List[DiskDrive] = []
        self._swap_base: List[int] = []
        self._swap_sectors: List[int] = []
        cache = BufferCache(self.memory)
        self.fs = FileSystem(self.engine, cache)
        for i, spec in enumerate(config.disks):
            policy = spec.policy if spec.policy is not None else config.scheme.disk_policy
            scheduler = make_scheduler(
                policy.value, config.scheme.params.bw_difference_threshold
            )
            ledger = SpuBandwidthLedger(
                i, self.registry, config.scheme.params.disk_decay_period
            )
            drive = DiskDrive(
                self.engine, spec.geometry, scheduler, ledger, disk_id=i,
                fault_rng=self.engine.fork_rng(f"disk-fault-{i}"),
            )
            drive.on_failed = partial(self._reroute_failed, i)
            volume = Volume(
                spec.geometry.total_sectors - spec.swap_sectors,
                self.engine.fork_rng(f"volume-{i}"),
            )
            self.fs.mount(drive, volume)
            self.drives.append(drive)
            self._swap_base.append(spec.geometry.total_sectors - spec.swap_sectors)
            self._swap_sectors.append(spec.swap_sectors)

        # --- network interfaces ------------------------------------------
        self.links: List[NetworkLink] = []
        for i, nic in enumerate(config.nics):
            ledger = NetByteLedger(
                self.registry, decay_period=config.scheme.params.disk_decay_period
            )
            self.links.append(
                NetworkLink(
                    self.engine,
                    make_link_scheduler(nic.policy, nic.threshold),
                    ledger,
                    bandwidth_mbps=nic.bandwidth_mbps,
                    link_id=i,
                )
            )

        # --- CPU side (built at boot, once the SPUs exist) -------------------
        self.cpusched: Optional[CpuScheduler] = None
        self.memdaemon: Optional[MemorySharingDaemon] = None
        self.pageout: Optional[PageoutDaemon] = None
        self.cpu_account = CpuTimeAccount()
        #: Busy microseconds per CPU, for utilization reporting.
        self.cpu_busy_us: Dict[int, int] = {}
        #: Total slice transitions (a context-switch proxy).
        self.context_switches = 0

        # --- processes -----------------------------------------------------
        self.processes: Dict[int, Process] = {}
        self._next_pid = itertools.count(1)
        #: SPU id -> mount index used for its swap I/O (default mount 0).
        self._swap_mount: Dict[int, int] = {}

        self._swap_rng = self.engine.fork_rng("kernel-swap")
        self._dirty_rng = self.engine.fork_rng("kernel-dirty")
        #: Probability a stolen anonymous page is dirty and must be
        #: written to swap before reuse.
        self.dirty_eviction_fraction = 0.5

        # --- hardware fault state (see repro.faults) -----------------------
        #: Dead disk id -> surviving disk id its traffic moved to.
        self._disk_redirect: Dict[int, int] = {}
        #: Disk ids that failed permanently, in failure order.
        self.disks_failed: List[int] = []
        #: Online CPU count plus a piecewise-constant capacity integral,
        #: so utilization and the invariant watchdog stay correct when
        #: processors come and go mid-run.
        self._n_online_cpus = config.ncpus
        self._capacity_integral_us = 0
        self._capacity_since = 0
        self.cpus_removed = 0
        self.cpus_added = 0
        #: Contract renegotiations triggered by capacity changes or SPU
        #: population changes.
        self.renegotiations = 0
        #: Swap I/Os that came back failed after retries (their pages
        #: are refaulted as zero-fill; the data loss is recorded here).
        self.swap_io_errors = 0

        # --- overload hardening (see repro.kernel.overload) ----------------
        self.overload = config.overload
        #: Spawn syscalls denied by the per-SPU process limit, per SPU.
        self.spawn_denials: Dict[int, int] = {}
        #: File syscalls delayed at least once by admission control.
        self.io_throttled: Dict[int, int] = {}
        #: File syscalls failed at the admission deadline, per SPU.
        self.io_rejected: Dict[int, int] = {}
        #: Processes killed by the OOM policy, per SPU.
        self.oom_kills: Dict[int, int] = {}
        #: File syscalls currently in flight, per SPU.
        self._io_inflight: Dict[int, int] = {}
        #: SPUs under watchdog escalation (halved admission limits).
        self._throttled_spus: set = set()
        #: Consecutive complete page-allocation failures, per SPU.
        self._oom_pressure: Dict[int, int] = {}

        #: Installed at boot when REPRO_SIMSAN=1 (see repro.sanitizer).
        self.sanitizer = None

        self._booted = False

    # --- configuration ---------------------------------------------------------

    def create_spu(self, name: str) -> SPU:
        """Create a user SPU; must happen before :meth:`boot`."""
        if self._booted:
            raise KernelError("create SPUs before boot()")
        spu = self.registry.create(name)
        spu.disk_bw().set_entitled(1)
        return spu

    # --- dynamic SPU lifecycle (paper Section 2.1: SPUs "can be
    # created and destroyed dynamically, or could be suspended when
    # they have no active processes and awakened at a later time") -----

    def add_spu(self, name: str) -> SPU:
        """Create a user SPU after boot; the machine is re-divided."""
        if not self._booted:
            return self.create_spu(name)
        spu = self.registry.create(name)
        spu.disk_bw().set_entitled(1)
        self.rebalance_spus()
        return spu

    def retire_spu(self, spu: SPU) -> None:
        """Destroy an SPU (it must have no processes) and re-divide."""
        self.registry.destroy(spu)
        if self._booted:
            self.rebalance_spus()

    def suspend_spu(self, spu: SPU) -> None:
        """Suspend an idle SPU; its shares go back into the pool."""
        self.registry.suspend(spu)
        if self._booted:
            self.rebalance_spus()

    def resume_spu(self, spu: SPU) -> None:
        """Wake a suspended SPU; it gets its share back."""
        self.registry.resume(spu)
        if self._booted:
            self.rebalance_spus()

    def rebalance_spus(self) -> None:
        """Re-divide CPUs and memory over the active user SPUs.

        Called when the SPU population changes *or* when machine
        capacity changes (CPU hot-remove/add, memory module loss).  The
        sharing contract renegotiates entitlements over the surviving
        capacity — degradation stays proportional to each SPU's
        contractual weight.  The CPU partition is rebuilt from scratch
        over the online processors; CPUs whose home changed are
        preempted at once (this is a rare administrative event, so the
        cost of a machine-wide reshuffle is acceptable).
        """
        if not self._booted:
            raise KernelError("boot() before rebalancing")
        users = self.registry.active_user_spus()
        if not users:
            return
        self.renegotiations += 1
        sched = self._sched()
        online = sched.online_processors()
        capacity = len(online) * MILLI_CPU
        cpu_entitlements = self.config.contract.renegotiate(
            capacity, users, Resource.CPU
        )
        for spu_id in cpu_entitlements:
            levels = self.registry.get(spu_id).cpu()
            if self.scheme.cpu_lending:
                levels.set_allowed(max(capacity, levels.used))
        if self.scheme.cpu_stride:
            from repro.cpu.stride import StrideCpuScheduler

            assert isinstance(sched, StrideCpuScheduler)
            for spu_id, millicpus in cpu_entitlements.items():
                sched.set_tickets(spu_id, max(1, millicpus))
        elif self.scheme.cpu_partitioned:
            old_home = {c.cpu_id: sched.home_of(c) for c in sched.processors}
            sched.partition = CpuPartition(
                len(online), cpu_entitlements, cpu_ids=[c.cpu_id for c in online]
            )
            for cpu in sched.processors:
                if old_home[cpu.cpu_id] == sched.home_of(cpu):
                    continue
                if cpu.running is not None:
                    self._preempt(cpu)
                else:
                    self._dispatch(cpu)
        # Memory follows the same contract over the surviving pool.
        self.config.contract.renegotiate(
            self.memory.user_pool(), users, Resource.MEMORY
        )
        if not self.scheme.mem_limits:
            for spu in users:
                levels = spu.memory()
                levels.set_allowed(max(self.memory.total_pages, levels.used))
        if self.memdaemon is not None:
            self.memdaemon.rebalance()

    def set_contract(self, contract, rebalance: bool = True) -> None:
        """Replace the machine's sharing contract mid-run.

        The fleet failover path: when an evacuated SPU is admitted onto
        this machine (possibly at a degraded fraction of its contract),
        the machine's contract gains the newcomer's weight and every
        hosted SPU's entitlement is renegotiated over the same
        capacity.  ``rebalance=False`` defers the renegotiation for
        callers that are about to add/remove SPUs anyway (those paths
        rebalance themselves).
        """
        self.config = dataclasses.replace(self.config, contract=contract)
        if self.memdaemon is not None:
            self.memdaemon.unsettle()
        if rebalance and self._booted:
            self.rebalance_spus()

    def set_swap_mount(self, spu: SPU, mount: int) -> None:
        """Route an SPU's paging I/O to a specific disk."""
        if not 0 <= mount < len(self.drives):
            raise KernelError(f"no mount {mount}")
        self._swap_mount[spu.spu_id] = mount

    def boot(self) -> None:
        """Divide the machine per the contract and start the daemons."""
        if self._booted:
            raise KernelError("kernel already booted")
        users = self.registry.active_user_spus()
        if not users:
            raise KernelError("create at least one SPU before boot()")

        # CPU entitlements in milli-CPUs.
        cpu_entitlements = self.config.contract.entitlements(
            self.config.ncpus * MILLI_CPU, users
        )
        for spu_id, millicpus in cpu_entitlements.items():
            levels = self.registry.get(spu_id).cpu()
            levels.set_entitled(millicpus)
            levels.set_allowed(
                millicpus if not self.scheme.cpu_lending
                else self.config.ncpus * MILLI_CPU
            )
        if self.scheme.cpu_stride:
            from repro.cpu.stride import StrideCpuScheduler

            self.cpusched = StrideCpuScheduler(
                self.config.ncpus, self.scheme, cpu_entitlements
            )
        else:
            partition = (
                CpuPartition(self.config.ncpus, cpu_entitlements)
                if self.scheme.cpu_partitioned
                else None
            )
            self.cpusched = CpuScheduler(self.config.ncpus, self.scheme, partition)

        # Memory entitlements; without per-SPU limits (SMP) the cap is
        # the whole machine.
        pool = self.memory.user_pool()
        for spu_id, pages in self.config.contract.entitlements(pool, users).items():
            levels = self.registry.get(spu_id).memory()
            levels.set_entitled(pages)
            if not self.scheme.mem_limits:
                levels.set_allowed(self.config.total_pages)
        if self.scheme.mem_limits:
            self.memdaemon = MemorySharingDaemon(
                self.engine, self.memory, lambda: self.config.contract
            )
            self.memdaemon.start()
        if self.scheme.params.proactive_pageout:
            self.pageout = PageoutDaemon(
                self.engine,
                self.memory,
                steal_from=lambda spu_id: self._steal_page(self.registry.get(spu_id)),
                period=self.scheme.params.pageout_period,
            )
            self.pageout.start()

        self.fs.start_daemons()
        # The tick opts into idle fast-forward: when the machine is
        # quiescent (engine idle probe below), _skip_ticks replays the
        # only state k idle ticks change — the time-partition rotation.
        self._tick_timer = self.engine.every(
            self.scheme.params.clock_tick, self._tick, skip_fn=self._skip_ticks
        )
        self.engine.set_idle_probe(self._quiescent)
        self._booted = True

        # Imported here, not at module top: the sanitizer needs the
        # Kernel type for its checks, so a top-level import would cycle.
        from repro.sanitizer import maybe_install

        self.sanitizer = maybe_install(self)

    # --- process lifecycle --------------------------------------------------------

    def spawn(
        self,
        behavior: Behavior,
        spu: SPU,
        name: str = "",
        parent: Optional[int] = None,
        base_priority: int = 20,
    ) -> Process:
        """Create a process in ``spu`` and start interpreting it."""
        if not self._booted:
            raise KernelError("boot() before spawning processes")
        pid = next(self._next_pid)
        proc = Process(
            pid,
            spu.spu_id,
            behavior,
            name=name,
            base_priority=base_priority,
            created=self.engine.now,
            parent=parent,
        )
        self.processes[pid] = proc
        self.registry.assign(pid, spu)
        proc._ws_rng = self.engine.fork_rng(f"ws-{pid}")  # type: ignore[attr-defined]
        self._advance(proc)
        return proc

    def spawn_gang(
        self,
        behaviors: List[Behavior],
        spu: SPU,
        name: str = "",
        base_priority: int = 20,
    ) -> List[Process]:
        """Spawn co-scheduled processes (see :mod:`repro.kernel.gang`).

        Installing the first gang activates the scheduler's eligibility
        filter; non-gang processes are unaffected by it.
        """
        from repro.kernel.gang import Gang

        gang = Gang(name=name)
        procs = []
        for i, behavior in enumerate(behaviors):
            proc = Process(
                next(self._next_pid),
                spu.spu_id,
                behavior,
                name=f"{gang.name}.{i}",
                base_priority=base_priority,
                created=self.engine.now,
            )
            gang.add(proc)
            self.processes[proc.pid] = proc
            self.registry.assign(proc.pid, spu)
            proc._ws_rng = self.engine.fork_rng(f"ws-{proc.pid}")  # type: ignore[attr-defined]
        if self._sched().eligibility is None:
            self._sched().eligibility = self._gang_eligible
        # Start interpreting only after every member exists, so the
        # gang is never observed half-constructed.
        for proc in gang.members:
            procs.append(proc)
            self._advance(proc)
        # The first members enqueued while the gang looked incomplete;
        # now that it is whole, give every idle CPU a chance.
        for cpu in self._sched().processors:
            if cpu.idle:
                self._dispatch(cpu)
        return procs

    def _gang_eligible(self, proc: Process, now: int) -> bool:
        """All-or-nothing gang dispatch (Ousterhout-style).

        A gang member may be dispatched only when no member is blocked
        and the gang can actually start as a unit: either members are
        already running, or enough CPUs sit idle to place every
        runnable member at once.  (With spin barriers, a partial gang
        burns CPU in busy-waits — exactly what this gate prevents.)
        """
        gang = getattr(proc, "gang", None)
        if gang is None:
            return True
        if not gang.schedulable():
            return False
        sched = self._sched()
        running = sum(
            1 for m in gang.members if m.state is ProcessState.RUNNING
        )
        if running:
            return True
        runnable = sum(
            1 for m in gang.members if m.state is ProcessState.RUNNABLE
        )
        if self.scheme.cpu_partitioned and sched.partition is not None:
            cpus = [
                c for c in sched.processors
                if sched.home_of(c) == proc.spu_id
            ]
            # With lending, foreign idle CPUs can host overflow members.
            if self.scheme.cpu_lending:
                cpus = sched.processors
        else:
            cpus = sched.processors
        online = [c for c in cpus if c.online]
        idle = sum(1 for c in online if c.idle)
        return bool(online) and idle >= min(runnable, len(online))

    def _gang_boost(self) -> None:
        """Anti-starvation: clear space for a gang stuck behind other
        work (the time-slot rotation of classical gang scheduling,
        approximated at clock-tick granularity)."""
        sched = self._sched()
        seen = set()
        for proc in list(self.processes.values()):
            gang = getattr(proc, "gang", None)
            if gang is None or gang.gang_id in seen:
                continue
            seen.add(gang.gang_id)
            if not gang.schedulable():
                continue
            members = [
                m for m in gang.members if m.state is ProcessState.RUNNABLE
            ]
            if not members or any(
                m.state is ProcessState.RUNNING for m in gang.members
            ):
                continue
            waited = self.engine.now - max(m.runnable_since for m in members)
            if waited < self.scheme.params.time_slice:
                continue
            # Preempt enough non-gang work to fit the whole gang, then
            # dispatch; the gang's rested priorities win the CPUs.
            needed = min(len(members), len(sched.processors))
            idle = sum(1 for c in sched.processors if c.idle)
            victims = [
                c for c in sched.processors
                if c.running is not None
                and getattr(c.running, "gang", None) is None
            ]
            for cpu in victims[: max(0, needed - idle)]:
                self._preempt(cpu, dispatch=False)
            for cpu in sched.processors:
                if cpu.idle:
                    self._dispatch(cpu)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run the simulation (to quiescence, or to ``until``)."""
        executed = self.engine.run(until=until, max_events=max_events)
        if self.sanitizer is not None:
            # One last full pass: the hook checks after events only, so
            # this covers state changed outside any event (before a run
            # that executes none, or by the caller between runs).
            self.sanitizer.check()
        return executed

    def jobs_done(self) -> bool:
        return all(p.state is ProcessState.EXITED for p in self.processes.values())

    def cpu_utilization(self) -> float:
        """Machine-wide busy fraction since boot.

        The denominator is the capacity *integral* — CPU-microseconds
        the machine actually offered — so hot-removing processors
        mid-run does not deflate utilization for the time before the
        fault.
        """
        capacity = self.cpu_capacity_us()
        if capacity == 0:
            return 0.0
        busy = sum(self.cpu_busy_us.values())
        return busy / capacity

    # --- hardware faults (driven by repro.faults) -------------------------

    def cpu_capacity_us(self, now: Optional[int] = None) -> int:
        """CPU-microseconds of capacity offered since boot.

        Piecewise-constant integral of the online-CPU count over time;
        equal to ``now * ncpus`` on a machine that never faulted.
        """
        if now is None:
            now = self.engine.now
        return (
            self._capacity_integral_us
            + (now - self._capacity_since) * self._n_online_cpus
        )

    def _note_capacity_change(self, n_online: int) -> None:
        now = self.engine.now
        self._capacity_integral_us += (
            (now - self._capacity_since) * self._n_online_cpus
        )
        self._capacity_since = now
        self._n_online_cpus = n_online

    def remove_cpu(self, cpu_id: Optional[int] = None) -> int:
        """Hot-remove a processor (hardware fault).

        The victim's running process is preempted back to its run
        queue, the CPU partition is rebuilt over the survivors, and the
        contract renegotiates every SPU's entitlement over the smaller
        machine.  Returns the removed CPU id.  The last online CPU
        cannot be removed — the machine would halt.
        """
        sched = self._sched()
        online = sched.online_processors()
        if len(online) <= 1:
            raise KernelError("cannot remove the last online CPU")
        if cpu_id is None:
            cpu = online[-1]
        else:
            cpu = sched.processors[cpu_id] if 0 <= cpu_id < len(sched.processors) else None
            if cpu is None or not cpu.online:
                raise KernelError(f"no online cpu {cpu_id}")
        # Offline first: _preempt makes the victim runnable again, and
        # a still-online CPU would look idle and instantly re-dispatch
        # onto the processor being pulled.
        cpu.online = False
        if cpu.running is not None:
            self._preempt(cpu, dispatch=False)
        self._note_capacity_change(len(online) - 1)
        self.cpus_removed += 1
        self.rebalance_spus()
        return cpu.cpu_id

    def add_cpu(self, cpu_id: Optional[int] = None) -> int:
        """Bring an offlined processor back (hot-add / repair)."""
        sched = self._sched()
        offline = [c for c in sched.processors if not c.online]
        if not offline:
            raise KernelError("no offline CPU to add")
        if cpu_id is None:
            cpu = offline[0]
        else:
            matches = [c for c in offline if c.cpu_id == cpu_id]
            if not matches:
                raise KernelError(f"cpu {cpu_id} is not offline")
            cpu = matches[0]
        cpu.online = True
        self._note_capacity_change(len(sched.online_processors()))
        self.cpus_added += 1
        self.rebalance_spus()
        self._dispatch(cpu)
        return cpu.cpu_id

    def remove_memory(self, pages: int) -> int:
        """Lose a memory module: shrink the page pool by ``pages``.

        Free pages are taken first; past that, in-use pages are evicted
        through the normal stealing path (the owning SPU pays the
        eviction, exactly as for a policy revocation).  Entitlements
        are renegotiated over the surviving pool.  Returns the number
        of pages actually removed.
        """
        removed = self.memory.decommission(pages, evict=self._evict_for_fault)
        if self._booted:
            self.rebalance_spus()
        return removed

    def _evict_for_fault(self) -> bool:
        """Free one in-use page for :meth:`remove_memory`."""
        users = [
            s for s in self.registry.active_user_spus() if s.memory().used > 0
        ]
        victims = sorted(users, key=lambda s: (-s.memory().used, s.spu_id)) or [
            s for s in (self.registry.shared_spu,) if s.memory().used > 0
        ]
        for victim in victims:
            if self._steal_page(victim):
                return True
        return False

    def fail_disk(self, disk_id: int) -> int:
        """A drive dies permanently; fail over to a surviving mirror.

        The dead drive's queued and in-flight requests are resubmitted
        to the first surviving drive (sectors remapped if the target is
        smaller), its filesystem volume is retargeted there, and future
        submissions follow via the redirect table.  Returns the
        surviving drive's id.  With no survivor left, raises — total
        storage loss is outside the degradation model.
        """
        if not 0 <= disk_id < len(self.drives):
            raise KernelError(f"no disk {disk_id}")
        dead = self.drives[disk_id]
        if not dead.alive:
            return self._disk_redirect.get(disk_id, disk_id)
        survivors = [
            i for i, d in enumerate(self.drives) if d.alive and i != disk_id
        ]
        if not survivors:
            raise KernelError("no surviving drive to fail over to")
        target = survivors[0]
        orphans = dead.fail_permanently()
        self.disks_failed.append(disk_id)
        self._disk_redirect[disk_id] = target
        # Re-point any earlier failovers that landed on this drive.
        for earlier, dest in list(self._disk_redirect.items()):
            if dest == disk_id:
                self._disk_redirect[earlier] = target
        self.fs.retarget_drive(disk_id, target)
        for request in orphans:
            self._reroute_failed(disk_id, request)
        return target

    def _reroute_failed(self, dead_id: int, request: DiskRequest) -> None:
        """Resubmit a dead drive's request to its failover target.

        The original enqueue time rides along, so wait/response
        metrics cover the whole ordeal; sectors are remapped into the
        target's geometry when it is smaller.
        """
        target_id = self._disk_redirect.get(dead_id)
        while target_id is not None and not self.drives[target_id].alive:
            target_id = self._disk_redirect.get(target_id)
        if target_id is None:
            # Nowhere to go: the request is lost.
            request.failed = True
            if request.enqueue_time < 0:
                request.enqueue_time = self.engine.now
            if request.start_time < 0:
                request.start_time = self.engine.now
            request.finish_time = self.engine.now
            self.drives[dead_id].stats.record(request)
            if request.on_complete is not None:
                request.on_complete(request)  # simlint: dynamic=callback-field
            return
        target = self.drives[target_id]
        limit = target.geometry.total_sectors
        if request.sector + request.nsectors > limit:
            request.sector = request.sector % max(1, limit - request.nsectors)
        request.attempts = 0
        target.submit(request)

    def _live_mount(self, mount: int) -> int:
        """Follow disk failovers to the drive actually serving a mount."""
        seen = set()
        while mount in self._disk_redirect and mount not in seen:
            seen.add(mount)
            mount = self._disk_redirect[mount]
        return mount

    # --- the syscall interpreter -----------------------------------------------

    def _advance(self, proc: Process, value: object = None) -> None:
        """Drive the behaviour generator until it blocks or exits."""
        while True:
            try:
                if value is None or not hasattr(proc.behavior, "send"):
                    # next() also accepts plain (non-generator)
                    # iterators, e.g. a list of ops; those cannot
                    # receive values (Spawn results are dropped).
                    op = next(proc.behavior)
                else:
                    op = proc.behavior.send(value)
            except StopIteration:
                self._exit(proc)
                return
            value = None

            # Dispatch on the op's exact class, the per-burst ops first:
            # an identity test is cheaper than isinstance, and no op
            # class is subclassed (an instance of a subclass is an
            # unknown op).  Like the dispatch path below, the hot arms
            # read the engine's clock field rather than Engine.now.
            kind = type(op)
            if kind is Compute:
                proc.pending_compute = op.duration_us
                self._make_runnable(proc)
                return
            if kind is Checkpoint:
                # Two C-level appends, no Python call: see CheckpointLog.
                log = proc.checkpoints
                log.labels.append(op.label)
                log.times.append(self.engine._now)
                continue
            if kind is Sleep:
                proc.state = ProcessState.BLOCKED
                self.engine.call_after(op.duration_us, self._resume, proc)
                return
            if kind is SetWorkingSet:
                self._set_working_set(proc, op)
                continue
            if kind is ReadFile or kind is WriteFile or kind is WriteMetadata:
                proc.state = ProcessState.BLOCKED
                self._admit_io(proc, op, self.engine.now, throttled=False)
                return
            if kind is SendNetwork:
                try:
                    link = self.links[op.nic]
                except IndexError:
                    raise KernelError(f"no NIC {op.nic}") from None
                proc.state = ProcessState.BLOCKED
                link.send(
                    proc.spu_id, op.nbytes,
                    on_complete=partial(self._resume, proc), pid=proc.pid,
                )
                return
            if kind is Spawn:
                spu = self.registry.get(proc.spu_id)
                if not self._admit_spawn(spu):
                    # Per-SPU process limit: the spawn fails (-1) after
                    # a forced backoff, charged to the asking process.
                    self.spawn_denials[spu.spu_id] = (
                        self.spawn_denials.get(spu.spu_id, 0) + 1
                    )
                    proc.state = ProcessState.BLOCKED
                    self.engine.call_after(
                        max(1, self.overload.spawn_backoff_us),
                        self._resume_value, proc, -1,
                    )
                    return
                child = self.spawn(
                    op.behavior,
                    spu,
                    name=op.name,
                    parent=proc.pid,
                )
                proc.children.add(child.pid)
                value = child.pid
                continue
            if kind is WaitChildren:
                if self._children_done(proc):
                    continue
                proc.waiting_for_children = True
                proc.state = ProcessState.BLOCKED
                return
            if kind is BarrierWait:
                if op.spin:
                    self._spin_barrier(proc, op)
                else:
                    proc.state = ProcessState.BLOCKED
                    released = op.barrier.arrive(partial(self._resume, proc))
                    for resume in released:
                        resume()  # simlint: dynamic=continuation
                return
            if kind is Acquire:
                if op.lock.acquire(proc, op.shared, partial(self._resume, proc)):
                    continue
                proc.state = ProcessState.BLOCKED
                return
            if kind is Release:
                for grant in op.lock.release(proc):
                    grant()  # simlint: dynamic=continuation
                continue
            raise KernelError(f"process {proc.pid} yielded unknown op {op!r}")

    def _resume(self, proc: Process) -> None:
        """A blocking syscall finished; continue the generator.

        A process killed while blocked (OOM policy, watchdog
        escalation) may still have completions in flight; they land
        here and are dropped.
        """
        # Process.alive, read inline: every sleep ends here.
        if proc.state is ProcessState.EXITED:
            return
        self._advance(proc)

    def _resume_value(self, proc: Process, value: object) -> None:
        """Continue a blocked generator, sending it a syscall result."""
        if not proc.alive:
            return
        self._advance(proc, value)

    # --- overload hardening (see repro.kernel.overload) --------------------

    def _admit_spawn(self, spu: SPU) -> bool:
        """Whether the per-SPU process limit admits one more process.

        Only the ``Spawn`` *syscall* is limited; :meth:`spawn` from
        experiment setup code is administrative and always admitted.
        """
        limit = self.overload.max_procs_per_spu
        if limit is None or not spu.is_user:
            return True
        if spu.spu_id in self._throttled_spus:
            limit = self.overload.clamped(limit)
        return len(spu.pids) < limit

    def _io_limit(self, spu_id: int) -> Optional[int]:
        limit = self.overload.max_inflight_io_per_spu
        if limit is None or not self.registry.get(spu_id).is_user:
            return None
        if spu_id in self._throttled_spus:
            return self.overload.clamped(limit)
        return limit

    def _admit_io(
        self, proc: Process, op: object, issued_at: int, throttled: bool
    ) -> None:
        """Syscall-level admission control on the file-I/O path.

        An SPU over its in-flight budget waits in a backpressure loop
        (re-trying every ``io_retry_us``); a syscall still waiting at
        its deadline fails — the behaviour resumes with ``-1`` instead
        of queueing kernel work without bound.
        """
        if not proc.alive:
            return
        spu_id = proc.spu_id
        limit = self._io_limit(spu_id)
        if limit is not None and self._io_inflight.get(spu_id, 0) >= limit:
            if self.engine.now - issued_at >= self.overload.io_deadline_us:
                self.io_rejected[spu_id] = self.io_rejected.get(spu_id, 0) + 1
                self._resume_value(proc, -1)
                return
            if not throttled:
                self.io_throttled[spu_id] = self.io_throttled.get(spu_id, 0) + 1
            self.engine.call_after(
                self.overload.io_retry_us, self._admit_io, proc, op, issued_at, True
            )
            return
        self._io_inflight[spu_id] = self._io_inflight.get(spu_id, 0) + 1
        done = partial(self._io_done, proc, spu_id)
        kind = type(op)
        if kind is ReadFile:
            self.fs.read(proc.pid, spu_id, op.file, op.offset, op.nbytes, done)
        elif kind is WriteFile:
            self.fs.write(proc.pid, spu_id, op.file, op.offset, op.nbytes, done)
        else:
            assert kind is WriteMetadata
            self.fs.write_metadata(proc.pid, spu_id, op.file, done)

    def _io_done(self, proc: Process, spu_id: int) -> None:
        self._io_inflight[spu_id] = max(0, self._io_inflight.get(spu_id, 0) - 1)
        self._resume(proc)

    def throttle_spu(self, spu_id: int) -> None:
        """Escalation step 2 (see OverloadGuard): halve the SPU's
        spawn and file-I/O admission limits until unthrottled."""
        self._throttled_spus.add(spu_id)

    def unthrottle_spu(self, spu_id: int) -> None:
        """Lift an escalation throttle.  Idempotent."""
        self._throttled_spus.discard(spu_id)

    def spu_throttled(self, spu_id: int) -> bool:
        return spu_id in self._throttled_spus

    def kill(self, proc: Process, reason: str = "killed") -> None:
        """Forcibly terminate one process (OOM policy, escalation).

        The CPU slice (if any) is cancelled and charged, scheduler
        queue state is cleaned up, the behaviour generator is closed,
        and the ordinary exit path releases the process's pages and
        wakes a waiting parent.  Completions still in flight for the
        dead process are dropped at :meth:`_resume`.  Only the victim
        pays; its SPU's other processes and every other SPU continue
        untouched.
        """
        if not proc.alive:
            return
        proc.kill_reason = reason
        sched = self._sched()
        cpu = proc.cpu
        if cpu is not None:
            if proc.slice_handle is not None:
                proc.slice_handle.cancel()
                proc.slice_handle = None
            self._charge_slice(proc)
            sched.release(cpu)
            proc.cpu = None
        elif proc.state is ProcessState.RUNNABLE:
            sched.dequeue(proc)
        proc.spinning = False
        proc.pending_compute = 0
        try:
            proc.behavior.close()
        except Exception:  # pragma: no cover - misbehaving generator
            pass
        self._exit(proc)
        if cpu is not None:
            self._dispatch(cpu)

    def oom_kill(self, spu_id: int) -> Optional[Process]:
        """SPU-charged OOM policy: kill the largest memory offender
        *inside the offending SPU only*.

        The victim is the SPU's live process with the biggest memory
        footprint (resident + swapped pages; CPU time and pid break
        ties deterministically).  Returns the victim, or ``None`` when
        the SPU has no live processes.
        """
        procs = [
            p for p in self.processes.values()
            if p.spu_id == spu_id and p.alive
        ]
        if not procs:
            return None
        victim = max(
            procs,
            key=lambda p: (p.resident + p.paged_out, p.cpu_time_us, p.pid),
        )
        self.oom_kills[spu_id] = self.oom_kills.get(spu_id, 0) + 1
        self.kill(victim, reason="oom")
        return victim

    # --- spin barriers ---------------------------------------------------------

    #: Sentinel compute length for a busy-wait (cancelled when the
    #: barrier trips; never runs to completion).
    _SPIN_COMPUTE = 10**12

    def _spin_barrier(self, proc: Process, op: BarrierWait) -> None:
        """Busy-wait at the barrier: the process keeps consuming CPU."""
        released = op.barrier.arrive(partial(self._end_spin, proc))
        if released:
            # This arrival tripped the barrier: fire every waiter's
            # release (including this process's own).
            proc.spinning = True
            proc.pending_compute = self._SPIN_COMPUTE
            for resume in released:
                resume()  # simlint: dynamic=continuation
            return
        proc.spinning = True
        proc.pending_compute = self._SPIN_COMPUTE
        self._make_runnable(proc)

    def _end_spin(self, proc: Process) -> None:
        """The barrier tripped; stop the busy-wait wherever it is."""
        proc.spinning = False
        if proc.cpu is not None:
            # Mid-spin on a CPU: cancel the slice and move on.
            cpu = proc.cpu
            if proc.slice_handle is not None:
                proc.slice_handle.cancel()
                proc.slice_handle = None
            self._charge_slice(proc)
            proc.pending_compute = 0
            self._sched().release(cpu)
            proc.cpu = None
            self._advance(proc)
            self._dispatch(cpu)
            return
        proc.pending_compute = 0
        if proc.state is ProcessState.RUNNABLE:
            self._sched().dequeue(proc)
        # Otherwise this is the arrival that tripped the barrier,
        # still in the interpreter; just continue it.
        self._advance(proc)

    def _set_working_set(self, proc: Process, op: SetWorkingSet) -> None:
        proc.working_set = WorkingSetModel(
            op.pages,
            proc._ws_rng,  # type: ignore[attr-defined]
            touches_per_ms=op.touches_per_ms,
            fault_cluster_pages=op.fault_cluster_pages,
        )
        # Shrinking releases the excess immediately.
        if proc.resident > op.pages:
            self.memory.free_n(proc.spu_id, proc.resident - op.pages)
            proc.resident = op.pages
        # Pages on swap beyond the new working set will never be
        # touched again.
        proc.paged_out = min(proc.paged_out, max(0, op.pages - proc.resident))

    def _children_done(self, proc: Process) -> bool:
        return all(
            self.processes[pid].state is ProcessState.EXITED
            for pid in proc.children
        )

    def _exit(self, proc: Process) -> None:
        proc.state = ProcessState.EXITED
        proc.finished = self.engine.now
        self.memory.free_n(proc.spu_id, proc.resident)
        proc.resident = 0
        self.registry.remove(proc.pid)
        if proc.parent is not None:
            parent = self.processes[proc.parent]
            if parent.waiting_for_children and self._children_done(parent):
                parent.waiting_for_children = False
                self._advance(parent)

    # --- CPU dispatch ---------------------------------------------------------
    #
    # _make_runnable, _dispatch and the slice helpers run on every burst,
    # and only after boot() (every entry point that reaches them checks
    # first), so they read self.cpusched, the engine's clock field and
    # the processor's fields directly instead of going through _sched(),
    # Engine.now and Processor.idle.

    def _make_runnable(self, proc: Process) -> None:
        proc.state = ProcessState.RUNNABLE
        now = self.engine._now
        proc.runnable_since = now
        sched = self.cpusched
        sched.enqueue(proc)
        cpu = sched.find_cpu_for(proc, now)
        if cpu is not None:
            self._dispatch(cpu)
            return
        if self.scheme.params.revocation_mode == "ipi":
            self._send_revocation_ipi(proc)
        self._arm_dispatch_retry(proc)

    def _arm_dispatch_retry(self, proc: Process) -> None:
        """Keep the simulation alive for a process whose only route to
        a CPU is the tick-driven home rotation of a time-shared CPU.

        The rotation itself runs off daemon clock ticks, which do not
        keep :meth:`Engine.run` alive; without this non-daemon retry a
        lone process waiting for its rotation slot would strand when
        the rest of the event queue drained.
        """
        sched = self._sched()
        if sched.partition is None or not sched.partition.time_shared:
            return
        if proc.dispatch_retry_pending:
            return
        proc.dispatch_retry_pending = True

        def retry() -> None:
            proc.dispatch_retry_pending = False
            if proc.state is not ProcessState.RUNNABLE:
                return
            cpu = sched.find_cpu_for(proc, self.engine.now)
            if cpu is not None:
                self._dispatch(cpu)
            if proc.state is ProcessState.RUNNABLE:
                self._arm_dispatch_retry(proc)

        self.engine.call_after(self.scheme.params.clock_tick, retry)

    def _send_revocation_ipi(self, proc: Process) -> None:
        """Immediate loan revocation for a newly runnable home process.

        With tick-mode revocation (the paper's implementation) the
        process waits up to one clock tick; IPI mode claws a loaned
        home CPU back right away, for interactive response-time
        guarantees.
        """
        sched = self._sched()
        if not (self.scheme.cpu_partitioned and self.scheme.cpu_lending):
            return
        loaned = [
            c for c in sched.processors
            if c.on_loan and sched.home_of(c) == proc.spu_id
        ]
        if not loaned:
            return
        target = loaned[0]

        def deliver() -> None:
            # The world may have changed while the IPI was in flight.
            if target.on_loan and sched.home_of(target) == proc.spu_id \
                    and sched.waiting(proc.spu_id):
                sched.loans_revoked += 1
                self._preempt(target)

        self.engine.call_after(self.scheme.params.ipi_cost, deliver)

    def _sched(self) -> CpuScheduler:
        if self.cpusched is None:
            raise KernelError("kernel not booted")
        return self.cpusched

    def _dispatch(self, cpu: Processor) -> None:
        if cpu.running is not None or not cpu.online:
            return
        proc = self.cpusched.pick(cpu, self.engine._now)
        if proc is None:
            return
        self._begin_slice(cpu, proc)

    def _begin_slice(self, cpu: Processor, proc: Process) -> None:
        proc.state = ProcessState.RUNNING
        proc.cpu = cpu
        params = self.scheme.params
        # Cache-affinity warm-up when moving to a different CPU; no
        # compute progress during it (Section 3.1's "cache pollution").
        warmup = 0
        last_cpu_id = proc.last_cpu_id
        if (
            params.migration_cost
            and last_cpu_id is not None
            and last_cpu_id != cpu.cpu_id
        ):
            warmup = params.migration_cost
        proc.slice_warmup = warmup
        proc.last_cpu_id = cpu.cpu_id
        length, reason = proc.pending_compute, "done"
        quantum = params.time_slice
        if quantum < length:
            length, reason = quantum, "slice"
        working_set = proc.working_set
        if working_set is not None and not proc.spinning:
            to_fault = working_set.time_to_next_fault(proc.resident)
            if to_fault is not None and to_fault < length:
                length, reason = to_fault, "fault"
        engine = self.engine
        proc.slice_started = engine._now
        proc.slice_handle = engine.after(
            max(1, warmup + length), self._end_slice, cpu, proc, reason
        )

    def _end_slice(self, cpu: Processor, proc: Process, reason: str) -> None:
        proc.slice_handle = None
        self._charge_slice(proc)
        self.cpusched.release(cpu)
        proc.cpu = None
        if reason == "done":
            self._advance(proc)
        elif reason == "fault":
            self._page_fault(proc)
        else:
            self._make_runnable(proc)
        self._dispatch(cpu)

    def _charge_slice(self, proc: Process) -> None:
        now = self.engine._now
        elapsed = now - proc.slice_started
        # The warm-up portion burns CPU time without making progress.
        progress = max(0, elapsed - proc.slice_warmup)
        proc.pending_compute = max(0, proc.pending_compute - progress)
        proc.cpu_time_us += elapsed
        cpu = proc.cpu
        if cpu is not None:
            busy = self.cpu_busy_us
            busy[cpu.cpu_id] = busy.get(cpu.cpu_id, 0) + elapsed
        self.context_switches += 1
        proc.priority.charge(elapsed, now)
        self.cpu_account.charge(proc.spu_id, elapsed)
        self.cpusched.on_usage(proc.spu_id, elapsed)

    def _preempt(self, cpu: Processor, dispatch: bool = True) -> None:
        """Take the CPU away (loan revocation, rotation, gang boost)."""
        proc = cpu.running
        if proc is None:
            return
        if cpu.on_loan and self.scheme.params.loan_holddown:
            cpu.no_loan_until = self.engine.now + self.scheme.params.loan_holddown
        if proc.slice_handle is not None:
            proc.slice_handle.cancel()
            proc.slice_handle = None
        self._charge_slice(proc)
        self._sched().release(cpu)
        proc.cpu = None
        self._make_runnable(proc)
        if dispatch:
            self._dispatch(cpu)

    def _tick(self) -> None:
        """The 10 ms clock tick: rotation, loan revocation, dispatch."""
        sched = self._sched()
        for cpu in sched.rotate_time_shared():
            if cpu.running is None:
                continue
            new_home = sched.home_of(cpu)
            if new_home == cpu.running.spu_id:
                continue
            # With lending (PIso/SMP) the slot is only reclaimed when
            # the new owner has waiting work — otherwise the running
            # process borrows the slack.  Without lending (Quo) the
            # quota is strict: the slot is vacated even if it will sit
            # idle.
            if not self.scheme.cpu_lending:
                self._preempt(cpu)
            elif new_home is not None and sched.waiting(new_home):
                self._preempt(cpu)
        for cpu in sched.revocations():
            self._preempt(cpu)
        if sched.eligibility is not None:
            self._gang_boost()
        for cpu in sched.processors:
            if cpu.idle:
                self._dispatch(cpu)

    def _quiescent(self) -> bool:
        """True when a clock tick could change nothing but the rotation.

        With no process running or runnable, :meth:`_tick` reduces to
        ``partition.tick()``: the rotation preempts skip every CPU
        (nothing is running), :meth:`CpuScheduler.revocations` returns
        [] without touching its counters (no queue has waiters, no CPU
        is on loan), the gang boost finds no runnable members, and
        dispatching idle CPUs picks None with no side effects.  This is
        the engine's idle probe — the license to fast-forward tick runs.
        """
        sched = self.cpusched
        if sched is None:
            return False
        for cpu in sched.processors:
            if cpu.running is not None:
                return False
        return sched._nwaiting == 0

    def _skip_ticks(self, k: int) -> None:
        """Replay the state changes of ``k`` quiescent ticks at once.

        Under :meth:`_quiescent` the only mutation a tick makes is the
        time-partition rotation's credit arithmetic (which is
        independent of the clock), so k elided ticks are exactly k
        rotation advances.
        """
        sched = self.cpusched
        partition = sched.partition if sched is not None else None
        if partition is not None and partition.time_shared:
            for _ in range(k):
                partition.tick()

    # --- demand paging -----------------------------------------------------------

    def _page_fault(self, proc: Process) -> None:
        """Service a fault: get pages (stealing if needed), then either
        zero-fill (first touch, no I/O) or page in from swap.

        Only pages previously stolen from the process live on swap; a
        growing working set is satisfied by zero-filled pages at a
        small fixed cost.  This distinction is what makes memory
        pressure — not working-set size — the thing that generates
        paging I/O.
        """
        proc.state = ProcessState.BLOCKED
        proc.fault_count += 1
        assert proc.working_set is not None
        want = proc.working_set.pages_per_fault(proc.resident)
        # Bulk-grant what fits outright (no denial bookkeeping), then
        # fall back to the stealing path page by page; its first
        # failing try_allocate records the denial the per-page loop
        # would have recorded.
        got = self.memory.try_allocate_n(proc.spu_id, want)
        while got < want:
            if self._allocate_page(proc.spu_id):
                got += 1
            else:
                break
        if got == 0:
            # Complete allocation failure: not one page even after
            # stealing.  A sustained streak in one SPU means its fault
            # path can no longer make progress — the OOM policy kills
            # the largest offender inside that SPU (possibly this very
            # process) instead of letting the whole SPU livelock.
            streak = self._oom_pressure.get(proc.spu_id, 0) + 1
            self._oom_pressure[proc.spu_id] = streak
            if self.overload.oom_failure_streak and (
                streak >= self.overload.oom_failure_streak
            ):
                self._oom_pressure[proc.spu_id] = 0
                self.oom_kill(proc.spu_id)
                if not proc.alive:
                    return
        else:
            self._oom_pressure[proc.spu_id] = 0
        swapped = min(got, proc.paged_out) if got else min(1, proc.paged_out)
        if swapped == 0:
            # Zero-fill fault: a fixed kernel cost per page, no disk.
            self.engine.call_after(
                max(1, got) * self.ZERO_FILL_US_PER_PAGE,
                self._fault_done, proc, got, 0,
            )
            return
        mount = self._live_mount(self._swap_mount.get(proc.spu_id, 0))
        drive = self.drives[mount]
        span = max(1, swapped) * SECTORS_PER_PAGE
        base = self._swap_base[mount]
        sector = base + self._swap_rng.randrange(
            max(1, self._swap_sectors[mount] - span)
        )
        drive.submit(
            DiskRequest(
                spu_id=proc.spu_id,
                op=DiskOp.READ,
                sector=sector,
                nsectors=span,
                on_complete=partial(self._swap_in_done, proc, got, swapped),
                pid=proc.pid,
            )
        )

    #: Kernel cost of zero-filling one freshly allocated page.
    ZERO_FILL_US_PER_PAGE = 40

    def _fault_done(self, proc: Process, got: int, swapped: int) -> None:
        proc.resident += got
        proc.paged_out = max(0, proc.paged_out - swapped)
        self._make_runnable(proc)

    def _swap_in_done(
        self, proc: Process, got: int, swapped: int, request: DiskRequest
    ) -> None:
        """A page-in finished; a failed read degrades to zero-fill.

        Retries and the deadline are exhausted inside the drive; the
        lost pages are refilled with zeroes (the data loss is counted
        in :attr:`swap_io_errors`) so the process can keep running.
        """
        if request.failed:
            self.swap_io_errors += 1
        self._fault_done(proc, got, swapped)

    def _allocate_page(self, spu_id: int) -> bool:
        """Allocate one page, stealing a victim page if necessary."""
        if self.memory.try_allocate(spu_id):
            return True
        victim = self.memory.victim_spu(spu_id)
        if victim is not None and self._steal_page(victim):
            return self.memory.try_allocate(spu_id)
        return False

    def _steal_page(self, victim: SPU) -> bool:
        """Free one of the victim SPU's pages.

        Cheapest first: a clean buffer-cache block; then an anonymous
        page from the victim's biggest process (paying a swap write if
        dirty); as a last resort, kick writeback so a later attempt
        finds clean blocks.
        """
        if self.fs.cache.evict_clean(victim.spu_id):
            return True
        procs = [
            p
            for p in self.processes.values()
            if p.spu_id == victim.spu_id and p.alive and p.resident > 0
        ]
        if procs:
            target = max(procs, key=lambda p: (p.resident, p.pid))
            target.resident -= 1
            target.paged_out += 1
            self.memory.free(victim.spu_id)
            if self._dirty_rng.random() < self.dirty_eviction_fraction:
                self._swap_out(victim.spu_id)
            return True
        self.fs.writeback.flush_spu(victim.spu_id)
        return False

    def _swap_out(self, spu_id: int) -> None:
        """Asynchronously write one stolen dirty page to swap."""
        mount = self._live_mount(self._swap_mount.get(spu_id, 0))
        drive = self.drives[mount]
        base = self._swap_base[mount]
        sector = base + self._swap_rng.randrange(
            max(1, self._swap_sectors[mount] - SECTORS_PER_PAGE)
        )
        drive.submit(
            DiskRequest(
                spu_id=spu_id,
                op=DiskOp.WRITE,
                sector=sector,
                nsectors=SECTORS_PER_PAGE,
            )
        )
