"""Tests for the hardware fault-injection subsystem (repro.faults)."""

import pytest

from repro.core import SPURegistry, piso_scheme, quota_scheme, smp_scheme
from repro.disk import (
    DiskDrive,
    DiskOp,
    DiskRequest,
    hp97560,
    make_scheduler,
)
from repro.disk.drive import DiskFailedError, RetryPolicy
from repro.faults import (
    CpuAdd,
    CpuRemove,
    DiskFailure,
    DiskTransient,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    InvariantWatchdog,
    MemoryLoss,
)
from repro.kernel import Compute, DiskSpec, Kernel, KernelError, MachineConfig, ReadFile, SetWorkingSet
from repro.metrics.summary import format_report, machine_report
from repro.sim import Engine
from repro.sim.units import KB, MSEC, SEC, msecs
from tests.disk_recorder import record_requests


def machine(scheme=None, ncpus=4, memory_mb=16, ndisks=2, seed=0):
    return MachineConfig(
        ncpus=ncpus,
        memory_mb=memory_mb,
        disks=[DiskSpec(geometry=hp97560()) for _ in range(ndisks)],
        scheme=scheme if scheme is not None else piso_scheme(),
        seed=seed,
    )


def booted(scheme=None, nspus=2, **kwargs):
    kernel = Kernel(machine(scheme, **kwargs))
    spus = [kernel.create_spu(f"u{i}") for i in range(nspus)]
    kernel.boot()
    return kernel, spus


def bare_drive(retry=None, seed=1):
    engine = Engine(seed=seed)
    drive = DiskDrive(engine, hp97560(), make_scheduler("pos"), retry=retry)
    return engine, drive


# --- drive-level transient errors -----------------------------------------


class TestTransientErrors:
    def test_errors_inside_window_retry_then_succeed(self):
        engine, drive = bare_drive()
        drive.inject_transient(50 * MSEC, error_rate=1.0)
        done = []
        drive.submit(DiskRequest(1, DiskOp.READ, 1000, 8, on_complete=done.append))
        engine.run()
        (request,) = done
        assert not request.failed
        assert request.attempts > 1
        assert drive.stats.transient_errors > 0
        assert drive.stats.retries == drive.stats.transient_errors
        # The ordeal spans the error window; response covers it all.
        assert request.response_us >= 50 * MSEC - drive.retry.max_backoff_us

    def test_retry_budget_exhaustion_fails_request(self):
        policy = RetryPolicy(max_attempts=3, base_backoff_us=100, deadline_us=60 * SEC)
        engine, drive = bare_drive(retry=policy)
        drive.inject_transient(60 * SEC, error_rate=1.0)
        done = []
        drive.submit(DiskRequest(1, DiskOp.READ, 1000, 8, on_complete=done.append))
        engine.run()
        (request,) = done
        assert request.failed
        assert request.attempts == 3
        assert drive.stats.failed_requests == 1

    def test_deadline_stops_retries(self):
        policy = RetryPolicy(max_attempts=1000, base_backoff_us=5 * MSEC,
                             backoff_factor=1.0, deadline_us=40 * MSEC)
        engine, drive = bare_drive(retry=policy)
        drive.inject_transient(10 * SEC, error_rate=1.0)
        done = []
        drive.submit(DiskRequest(1, DiskOp.READ, 1000, 8, on_complete=done.append))
        engine.run()
        (request,) = done
        assert request.failed
        # Retries stop once the next attempt could not start before the
        # deadline; with a 5 ms backoff and ~10 ms service per attempt
        # that means a handful of attempts, far off the 1000 budget.
        assert request.attempts < 10
        assert request.finish_time < 2 * policy.deadline_us

    def test_per_request_deadline_overrides_policy(self):
        engine, drive = bare_drive()
        drive.inject_transient(10 * SEC, error_rate=1.0)
        done = []
        drive.submit(
            DiskRequest(1, DiskOp.READ, 1000, 8, on_complete=done.append,
                        deadline_us=30 * MSEC)
        )
        engine.run()
        (request,) = done
        assert request.failed
        assert request.finish_time < 30 * MSEC + drive.retry.max_backoff_us

    def test_zero_rate_never_errors(self):
        engine, drive = bare_drive()
        drive.inject_transient(10 * SEC, error_rate=0.0)
        done = []
        drive.submit(DiskRequest(1, DiskOp.READ, 1000, 8, on_complete=done.append))
        engine.run()
        assert not done[0].failed
        assert drive.stats.transient_errors == 0

    def test_after_window_service_is_clean(self):
        engine, drive = bare_drive()
        drive.inject_transient(10 * MSEC, error_rate=1.0)
        engine.after(20 * MSEC, lambda: drive.submit(
            DiskRequest(1, DiskOp.READ, 1000, 8)
        ))
        engine.run()
        assert drive.stats.transient_errors == 0

    def test_injection_validation(self):
        _engine, drive = bare_drive()
        with pytest.raises(ValueError):
            drive.inject_transient(-1)
        with pytest.raises(ValueError):
            drive.inject_transient(1000, error_rate=1.5)

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_us=0)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff_us=1000, backoff_factor=2.0,
                             max_backoff_us=3000)
        assert policy.backoff_us(1) == 1000
        assert policy.backoff_us(2) == 2000
        assert policy.backoff_us(5) == 3000


# --- drive-level permanent failure ----------------------------------------


class TestPermanentFailure:
    def test_fail_returns_queued_and_inflight(self):
        engine, drive = bare_drive()
        drive.submit(DiskRequest(1, DiskOp.READ, 1000, 8))
        drive.submit(DiskRequest(1, DiskOp.READ, 9000, 8))
        orphans = drive.fail_permanently()
        assert len(orphans) == 2
        assert not drive.alive
        assert not drive.busy and not drive.queue
        engine.run()
        assert drive.stats.count() == 0

    def test_fail_is_idempotent(self):
        _engine, drive = bare_drive()
        drive.submit(DiskRequest(1, DiskOp.READ, 1000, 8))
        assert len(drive.fail_permanently()) == 1
        assert drive.fail_permanently() == []

    def test_submit_to_dead_drive_raises_without_hook(self):
        _engine, drive = bare_drive()
        drive.fail_permanently()
        with pytest.raises(DiskFailedError):
            drive.submit(DiskRequest(1, DiskOp.READ, 1000, 8))

    def test_submit_to_dead_drive_uses_failover_hook(self):
        _engine, drive = bare_drive()
        drive.fail_permanently()
        rerouted = []
        drive.on_failed = rerouted.append
        request = DiskRequest(1, DiskOp.READ, 1000, 8)
        drive.submit(request)
        assert rerouted == [request]

    def test_orphan_keeps_enqueue_time(self):
        engine, drive = bare_drive()
        drive.submit(DiskRequest(1, DiskOp.READ, 1000, 8))
        engine.after(5 * MSEC, drive.fail_permanently)
        engine.run()
        # Can't assert inside run easily; resubmit path is covered by
        # the kernel failover tests — here just confirm the drive died.
        assert not drive.alive


# --- kernel-level CPU hot-remove / hot-add ---------------------------------


class TestCpuHotplug:
    def test_remove_shrinks_online_set_and_entitlements(self):
        kernel, spus = booted(ncpus=4, nspus=2)
        kernel.remove_cpu()
        sched = kernel.cpusched
        assert len(sched.online_processors()) == 3
        assert kernel.cpus_removed == 1
        total_entitled = sum(s.cpu().entitled for s in spus)
        assert total_entitled == 3000  # 3 CPUs in milli-CPUs

    def test_cannot_remove_last_cpu(self):
        kernel, _ = booted(ncpus=2, nspus=1)
        kernel.remove_cpu()
        with pytest.raises(KernelError):
            kernel.remove_cpu()

    def test_remove_specific_and_invalid(self):
        kernel, _ = booted(ncpus=4)
        assert kernel.remove_cpu(2) == 2
        with pytest.raises(KernelError):
            kernel.remove_cpu(2)  # already offline
        with pytest.raises(KernelError):
            kernel.remove_cpu(99)

    def test_add_restores_capacity(self):
        kernel, spus = booted(ncpus=4, nspus=2)
        removed = kernel.remove_cpu()
        assert kernel.add_cpu() == removed
        assert len(kernel.cpusched.online_processors()) == 4
        assert sum(s.cpu().entitled for s in spus) == 4000

    def test_add_without_offline_cpu_raises(self):
        kernel, _ = booted()
        with pytest.raises(KernelError):
            kernel.add_cpu()

    def test_running_process_is_preempted_not_lost(self):
        kernel, (a, _b) = booted(ncpus=2, nspus=2)
        proc = kernel.spawn(iter([Compute(msecs(50))]), a)
        kernel.run(until=msecs(5))
        kernel.remove_cpu(0)
        kernel.run()
        assert proc.finished is not None
        assert proc.cpu_time_us >= msecs(50)

    def test_capacity_integral_tracks_removal(self):
        kernel, _ = booted(ncpus=4, nspus=1)
        kernel.run(until=msecs(10))
        kernel.remove_cpu()
        kernel.run(until=msecs(20))
        expected = msecs(10) * 4 + msecs(10) * 3
        assert kernel.cpu_capacity_us() == expected

    def test_utilization_uses_offered_capacity(self):
        kernel, (a,) = booted(ncpus=2, nspus=1)
        kernel.spawn(iter([Compute(msecs(40))]), a)
        kernel.run(until=msecs(10))
        kernel.remove_cpu()
        kernel.run()
        assert 0.0 < kernel.cpu_utilization() <= 1.0


# --- kernel-level memory loss ------------------------------------------------


class TestMemoryLoss:
    def test_free_pages_go_first(self):
        kernel, _ = booted(memory_mb=16)
        before = kernel.memory.total_pages
        removed = kernel.remove_memory(100)
        assert removed == 100
        assert kernel.memory.total_pages == before - 100
        assert kernel.memory.decommissioned == 100

    def test_page_conservation_after_loss(self):
        kernel, _ = booted(memory_mb=16)
        kernel.remove_memory(50)
        charged = sum(s.memory().used for s in kernel.registry.all_spus())
        assert charged + kernel.memory.free_pages == kernel.memory.total_pages

    def test_in_use_pages_are_evicted(self):
        kernel, (a, _b) = booted(memory_mb=8, nspus=2)
        proc = kernel.spawn(
            iter([SetWorkingSet(pages=200), Compute(msecs(20))]), a
        )
        kernel.run(until=msecs(10))
        free_before = kernel.memory.free_pages
        removed = kernel.remove_memory(free_before + 50)
        assert removed > free_before  # had to evict
        kernel.run()
        assert proc.finished is not None

    def test_entitlements_shrink_with_pool(self):
        kernel, spus = booted(memory_mb=16, nspus=2)
        entitled_before = sum(s.memory().entitled for s in spus)
        kernel.remove_memory(200)
        entitled_after = sum(s.memory().entitled for s in spus)
        assert entitled_after < entitled_before

    def test_negative_pages_rejected(self):
        kernel, _ = booted()
        with pytest.raises(ValueError):
            kernel.remove_memory(-1)


# --- kernel-level disk failover ---------------------------------------------


class TestDiskFailover:
    def test_failover_retargets_files(self):
        kernel, (a, _b) = booted(ndisks=2)
        file = kernel.fs.create(1, "data", 256 * KB)
        target = kernel.fail_disk(1)
        assert target == 0
        assert kernel.fs.drive_of(file) is kernel.drives[0]
        done = []
        kernel.fs.read(1, a.spu_id, file, 0, 64 * KB, lambda: done.append(True))
        kernel.run()
        assert done == [True]
        assert kernel.drives[0].stats.count() > 0

    def test_orphans_complete_on_survivor(self):
        kernel, (a, _b) = booted(ndisks=2)
        done = []
        kernel.drives[1].submit(
            DiskRequest(a.spu_id, DiskOp.READ, 1000, 8, on_complete=done.append)
        )
        kernel.fail_disk(1)
        kernel.run()
        (request,) = done
        assert not request.failed
        assert kernel.drives[0].stats.count() == 1

    def test_swap_follows_failover(self):
        kernel, (a, _b) = booted(ndisks=2, memory_mb=8)
        kernel.set_swap_mount(a, 1)
        kernel.fail_disk(1)
        proc = kernel.spawn(
            iter([SetWorkingSet(pages=100), Compute(msecs(20))]), a
        )
        kernel.run()
        assert proc.finished is not None

    def test_no_survivor_raises(self):
        kernel, _ = booted(ndisks=1)
        with pytest.raises(KernelError):
            kernel.fail_disk(0)

    def test_fail_dead_disk_is_noop(self):
        kernel, _ = booted(ndisks=2)
        assert kernel.fail_disk(1) == 0
        assert kernel.fail_disk(1) == 0
        assert kernel.disks_failed == [1]

    def test_bad_disk_id_raises(self):
        kernel, _ = booted(ndisks=2)
        with pytest.raises(KernelError):
            kernel.fail_disk(5)


# --- the plan and injector ----------------------------------------------------


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan([CpuRemove(at_us=SEC), DiskFailure(at_us=MSEC, disk=0)])
        assert [e.at_us for e in plan] == [MSEC, SEC]
        plan.add(MemoryLoss(at_us=10, pages=5))
        assert plan.events[0].at_us == 10
        assert len(plan) == 3

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            FaultPlan([CpuRemove(at_us=-1)])
        with pytest.raises(FaultPlanError):
            FaultPlan([DiskTransient(at_us=0, disk=0, duration_us=-5)])
        with pytest.raises(FaultPlanError):
            FaultPlan([DiskTransient(at_us=0, disk=0, duration_us=0)])
        with pytest.raises(FaultPlanError):
            FaultPlan([DiskTransient(at_us=0, disk=0, duration_us=5, error_rate=2.0)])
        with pytest.raises(FaultPlanError):
            FaultPlan([MemoryLoss(at_us=0, pages=0)])
        with pytest.raises(FaultPlanError):
            FaultPlan(["not-a-fault"])

    def test_nan_and_infinity_are_named_and_rejected(self):
        # NaN passes every <=/< comparison, so these need dedicated
        # finiteness checks or a hand-edited plan would poison the
        # engine's schedule long after loading.
        nan, inf = float("nan"), float("inf")
        with pytest.raises(FaultPlanError, match="finite"):
            FaultPlan([CpuRemove(at_us=nan)])
        with pytest.raises(FaultPlanError, match="finite"):
            FaultPlan([DiskTransient(at_us=0, disk=0, duration_us=nan)])
        with pytest.raises(FaultPlanError, match="finite"):
            FaultPlan([DiskTransient(at_us=0, disk=0, duration_us=inf)])
        with pytest.raises(FaultPlanError, match="finite"):
            FaultPlan([DiskTransient(at_us=0, disk=0, duration_us=5,
                                     error_rate=nan)])
        with pytest.raises(FaultPlanError, match="finite"):
            FaultPlan([MemoryLoss(at_us=0, pages=nan)])

    def test_negative_disk_index_is_rejected(self):
        with pytest.raises(FaultPlanError, match="disk index"):
            FaultPlan([DiskFailure(at_us=0, disk=-1)])
        with pytest.raises(FaultPlanError, match="disk index"):
            FaultPlan([DiskTransient(at_us=0, disk=-2, duration_us=5)])

    def test_a_disk_dies_at_most_once(self):
        with pytest.raises(FaultPlanError, match="dies twice"):
            FaultPlan([
                DiskFailure(at_us=10, disk=1),
                DiskFailure(at_us=99, disk=1),
            ])
        # The same overlap via add() is caught before mutating the plan.
        plan = FaultPlan([DiskFailure(at_us=10, disk=1)])
        with pytest.raises(FaultPlanError, match="dies twice"):
            plan.add(DiskFailure(at_us=20, disk=1))
        assert len(plan) == 1
        # Different disks may still each die once.
        plan.add(DiskFailure(at_us=20, disk=2))
        assert len(plan) == 2


class TestFaultPlanJson:
    def sample(self):
        return FaultPlan([
            DiskTransient(at_us=msecs(5), disk=1, duration_us=msecs(50),
                          error_rate=0.4),
            MemoryLoss(at_us=msecs(10), pages=64),
            CpuRemove(at_us=msecs(20), cpu=1),
            CpuAdd(at_us=msecs(40), cpu=1),
            DiskFailure(at_us=msecs(60), disk=1),
        ])

    def test_round_trips_through_json(self):
        plan = self.sample()
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dicts() == plan.to_dicts()
        assert len(clone) == len(plan)
        # The validated clone is a real plan, not just equal dicts.
        assert all(type(a) is type(b) for a, b in zip(clone, plan))

    def test_round_trips_through_dicts(self):
        plan = self.sample()
        assert FaultPlan.from_dicts(plan.to_dicts()).to_dicts() == plan.to_dicts()

    def test_from_json_revalidates(self):
        # Parsing reuses the same validation as direct construction.
        with pytest.raises(FaultPlanError, match="error rate"):
            FaultPlan.from_json(
                '[{"kind": "disk_transient", "at_us": 0, "disk": 0,'
                ' "duration_us": 5, "error_rate": 7.0}]'
            )

    def test_from_json_rejects_malformed_input(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("[{oops")
        with pytest.raises(FaultPlanError, match="must be an array"):
            FaultPlan.from_json('{"kind": "cpu_remove", "at_us": 0}')
        with pytest.raises(FaultPlanError, match="needs a 'kind'"):
            FaultPlan.from_json('[{"at_us": 0}]')
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultPlan.from_json('[{"kind": "meteor_strike", "at_us": 0}]')
        with pytest.raises(FaultPlanError, match="bad fields for"):
            FaultPlan.from_json('[{"kind": "memory_loss", "at_us": 0}]')


class TestFaultInjector:
    def test_arm_validates_against_machine(self):
        kernel, _ = booted(ncpus=2, ndisks=2)
        with pytest.raises(FaultPlanError):
            FaultInjector(kernel, FaultPlan([DiskFailure(at_us=0, disk=7)])).arm()
        with pytest.raises(FaultPlanError):
            FaultInjector(kernel, FaultPlan([CpuRemove(at_us=0, cpu=9)])).arm()

    def test_double_arm_rejected(self):
        kernel, _ = booted()
        injector = FaultInjector(kernel, FaultPlan([]))
        injector.arm()
        with pytest.raises(FaultPlanError):
            injector.arm()

    def test_plan_applies_in_order(self):
        kernel, (a, _b) = booted(ncpus=4, ndisks=2)
        plan = FaultPlan([
            DiskTransient(at_us=msecs(5), disk=0, duration_us=msecs(10)),
            CpuRemove(at_us=msecs(10)),
            DiskFailure(at_us=msecs(20), disk=1),
            MemoryLoss(at_us=msecs(30), pages=10),
            CpuAdd(at_us=msecs(40)),
        ])
        injector = FaultInjector(kernel, plan)
        injector.arm()
        kernel.spawn(iter([Compute(msecs(60))]), a)
        kernel.run()
        assert len(injector.applied) == 5
        assert [t for t, _ in injector.applied] == sorted(t for t, _ in injector.applied)
        assert kernel.cpus_removed == 1 and kernel.cpus_added == 1
        assert kernel.disks_failed == [1]
        assert kernel.memory.decommissioned == 10

    def test_faults_do_not_keep_run_alive(self):
        kernel, (a, _b) = booted(ncpus=4)
        FaultInjector(
            kernel, FaultPlan([CpuRemove(at_us=10 * SEC)])
        ).arm()
        kernel.spawn(iter([Compute(msecs(1))]), a)
        kernel.run()
        # The daemon fault at t=10s never fired; the run ended at job exit.
        assert kernel.engine.now < SEC
        assert kernel.cpus_removed == 0


# --- the invariant watchdog ---------------------------------------------------


class TestInvariantWatchdog:
    def test_zero_violations_through_a_faulty_run(self):
        kernel, (a, b) = booted(ncpus=4, ndisks=2, memory_mb=8)
        watchdog = InvariantWatchdog(kernel)
        watchdog.start()
        FaultInjector(kernel, FaultPlan([
            DiskTransient(at_us=msecs(5), disk=0, duration_us=msecs(20)),
            CpuRemove(at_us=msecs(10)),
            MemoryLoss(at_us=msecs(15), pages=50),
            DiskFailure(at_us=msecs(25), disk=1),
        ])).arm()
        file = kernel.fs.create(0, "f", 128 * KB)
        for spu in (a, b):
            kernel.spawn(
                iter([SetWorkingSet(pages=50), Compute(msecs(30)),
                      ReadFile(file, 0, 64 * KB), Compute(msecs(10))]),
                spu,
            )
        kernel.run()
        assert watchdog.checks_run > 0
        assert watchdog.violations == []

    def test_non_strict_records(self):
        kernel, _ = booted()
        watchdog = InvariantWatchdog(kernel)
        kernel.memory.free_pages -= 1
        watchdog.check()
        assert any(v.name == "page-conservation" for v in watchdog.violations)

    def test_dead_drive_with_work_is_flagged(self):
        kernel, _ = booted(ndisks=2)
        kernel.fail_disk(1)
        kernel.drives[1].queue.append(DiskRequest(2, DiskOp.READ, 0, 8))
        watchdog = InvariantWatchdog(kernel)
        watchdog.check()
        assert any(v.name == "dead-drive-quiet" for v in watchdog.violations)


# --- determinism (same seed + same plan => byte-identical report) -------------


class TestFaultDeterminism:
    @staticmethod
    def _run(seed=7):
        kernel = Kernel(machine(piso_scheme(), ncpus=4, ndisks=2,
                                memory_mb=8, seed=seed))
        a = kernel.create_spu("a")
        b = kernel.create_spu("b")
        kernel.boot()
        recorded = [record_requests(d) for d in kernel.drives]
        watchdog = InvariantWatchdog(kernel)
        watchdog.start()
        FaultInjector(kernel, FaultPlan([
            DiskTransient(at_us=msecs(5), disk=0, duration_us=msecs(120),
                          error_rate=0.7),
            CpuRemove(at_us=msecs(12)),
            MemoryLoss(at_us=msecs(18), pages=64),
            DiskFailure(at_us=msecs(24), disk=1),
        ])).arm()
        file = kernel.fs.create(0, "f", 256 * KB)
        other = kernel.fs.create(1, "g", 256 * KB)
        # Working sets big enough to cause stealing and swap I/O: the
        # swap-sector and victim choices come from seeded RNG streams,
        # so different seeds are guaranteed to diverge.
        for spu, f in ((a, file), (b, other)):
            kernel.spawn(
                iter([SetWorkingSet(pages=1100), Compute(msecs(25)),
                      ReadFile(f, 0, 128 * KB), Compute(msecs(15))]),
                spu,
            )
        kernel.run()
        signature = (
            kernel.engine.now,
            tuple(
                (r.spu_id, r.sector, r.enqueue_time, r.finish_time, r.failed)
                for requests in recorded
                for r in requests
            ),
            tuple(sorted(
                (p.pid, p.finished, p.cpu_time_us, p.fault_count)
                for p in kernel.processes.values()
            )),
        )
        return format_report(machine_report(kernel)), signature, watchdog.violations

    def test_identical_reports_across_runs(self):
        report1, sig1, violations1 = self._run()
        report2, sig2, violations2 = self._run()
        assert report1 == report2
        assert sig1 == sig2
        assert violations1 == violations2 == []

    def test_different_seed_differs(self):
        _report1, sig1, _ = self._run(seed=7)
        _report2, sig2, _ = self._run(seed=8)
        assert sig1 != sig2
