"""End-to-end tests of the kernel: processes, syscalls, paging."""

import re

import pytest

from repro.core import piso_scheme, quota_scheme, smp_scheme
from repro.kernel import (
    Acquire,
    Barrier,
    BarrierWait,
    Compute,
    DiskSpec,
    Kernel,
    KernelError,
    KernelLock,
    MachineConfig,
    ProcessState,
    ReadFile,
    Release,
    SetWorkingSet,
    Sleep,
    Spawn,
    WaitChildren,
    WriteFile,
    WriteMetadata,
)
from repro.disk.model import fast_disk
from repro.sim.units import KB, MB, msecs


def machine(scheme=None, ncpus=2, memory_mb=16, seed=0):
    return MachineConfig(
        ncpus=ncpus,
        memory_mb=memory_mb,
        disks=[DiskSpec(geometry=fast_disk())],
        scheme=scheme if scheme is not None else piso_scheme(),
        seed=seed,
    )


def booted(scheme=None, nspus=1, **kwargs):
    kernel = Kernel(machine(scheme, **kwargs))
    spus = [kernel.create_spu(f"u{i}") for i in range(nspus)]
    kernel.boot()
    return kernel, spus


class TestLifecycle:
    def test_spawn_before_boot_rejected(self):
        kernel = Kernel(machine())
        spu = kernel.create_spu("u")
        with pytest.raises(KernelError):
            kernel.spawn(iter(()), spu)

    def test_boot_requires_spus(self):
        kernel = Kernel(machine())
        with pytest.raises(KernelError):
            kernel.boot()

    def test_double_boot_rejected(self):
        kernel, _ = booted()
        with pytest.raises(KernelError):
            kernel.boot()

    def test_create_spu_after_boot_rejected(self):
        kernel, _ = booted()
        with pytest.raises(KernelError):
            kernel.create_spu("late")

    def test_empty_behavior_exits_immediately(self):
        kernel, (spu,) = booted()
        proc = kernel.spawn(iter(()), spu)
        kernel.run()
        assert proc.state is ProcessState.EXITED
        assert proc.response_us == 0

    def test_unknown_op_raises(self):
        kernel, (spu,) = booted()

        def bad():
            yield "not-an-op"

        with pytest.raises(KernelError):
            kernel.spawn(bad(), spu)

    def test_a_plain_object_is_an_unknown_op(self):
        kernel, (spu,) = booted()
        op = object()

        def bad():
            yield op

        with pytest.raises(KernelError, match=re.escape(f"unknown op {op!r}")):
            kernel.spawn(bad(), spu)

    def test_a_subclass_of_an_op_is_an_unknown_op(self):
        # The kernel dispatches on an op's exact class.
        class LongCompute(Compute):
            pass

        kernel, (spu,) = booted()
        op = LongCompute(msecs(1))

        def bad():
            yield op

        with pytest.raises(KernelError, match=re.escape(f"unknown op {op!r}")):
            kernel.spawn(bad(), spu)


class TestCompute:
    def test_compute_takes_exactly_its_duration_uncontended(self):
        kernel, (spu,) = booted()

        def job():
            yield Compute(msecs(100))

        proc = kernel.spawn(job(), spu)
        kernel.run()
        assert proc.response_us == msecs(100)
        assert proc.cpu_time_us == msecs(100)

    def test_two_jobs_share_one_cpu(self):
        kernel, (spu,) = booted(ncpus=1)

        def job():
            yield Compute(msecs(100))

        a = kernel.spawn(job(), spu)
        b = kernel.spawn(job(), spu)
        kernel.run()
        # Interleaved in 30 ms slices: both take about twice as long.
        assert a.response_us > msecs(150)
        assert b.response_us > msecs(150)

    def test_cpu_time_charged_to_spu_account(self):
        kernel, (spu,) = booted()

        def job():
            yield Compute(msecs(50))

        kernel.spawn(job(), spu)
        kernel.run()
        assert kernel.cpu_account.total(spu.spu_id) == msecs(50)

    def test_jobs_done(self):
        kernel, (spu,) = booted()

        def job():
            yield Compute(msecs(10))

        kernel.spawn(job(), spu)
        assert not kernel.jobs_done()
        kernel.run()
        assert kernel.jobs_done()


class TestSleepAndSpawn:
    def test_sleep_advances_wall_clock_only(self):
        kernel, (spu,) = booted()

        def job():
            yield Sleep(msecs(250))

        proc = kernel.spawn(job(), spu)
        kernel.run()
        assert proc.response_us == msecs(250)
        assert proc.cpu_time_us == 0

    def test_spawn_returns_child_pid(self):
        kernel, (spu,) = booted()
        seen = {}

        def child():
            yield Compute(msecs(1))

        def parent():
            pid = yield Spawn(child(), name="kid")
            seen["pid"] = pid
            yield WaitChildren()

        kernel.spawn(parent(), spu)
        kernel.run()
        assert seen["pid"] in kernel.processes
        assert kernel.processes[seen["pid"]].name == "kid"

    def test_wait_children_blocks_until_all_exit(self):
        kernel, (spu,) = booted(ncpus=4)

        def child(ms):
            yield Compute(msecs(ms))

        def parent():
            yield Spawn(child(50))
            yield Spawn(child(150))
            yield WaitChildren()

        proc = kernel.spawn(parent(), spu)
        kernel.run()
        assert proc.response_us >= msecs(150)

    def test_wait_with_no_children_is_instant(self):
        kernel, (spu,) = booted()

        def parent():
            yield WaitChildren()

        proc = kernel.spawn(parent(), spu)
        kernel.run()
        assert proc.response_us == 0

    def test_children_inherit_parent_spu(self):
        kernel, (spu,) = booted()

        def child():
            yield Compute(msecs(1))

        def parent():
            yield Spawn(child())
            yield WaitChildren()

        parent_proc = kernel.spawn(parent(), spu)
        kernel.run()
        (child_pid,) = parent_proc.children
        assert kernel.processes[child_pid].spu_id == spu.spu_id


class TestBarriers:
    def test_gang_waits_for_slowest(self):
        kernel, (spu,) = booted(ncpus=4)
        barrier = Barrier(2)

        def worker(ms):
            yield Compute(msecs(ms))
            yield BarrierWait(barrier)
            yield Compute(msecs(10))

        fast = kernel.spawn(worker(10), spu)
        slow = kernel.spawn(worker(100), spu)
        kernel.run()
        assert fast.response_us >= msecs(110)
        assert slow.response_us >= msecs(110)


class TestLocksIntegration:
    def test_mutex_serializes_critical_sections(self):
        kernel, (spu,) = booted(ncpus=4)
        lock = KernelLock("l")

        def job():
            yield Acquire(lock)
            yield Compute(msecs(50))
            yield Release(lock)

        procs = [kernel.spawn(job(), spu) for _ in range(3)]
        kernel.run()
        assert max(p.response_us for p in procs) >= msecs(150)
        assert lock.acquisitions == 3


class TestFileIO:
    def test_read_write_roundtrip(self):
        kernel, (spu,) = booted()
        file = kernel.fs.create(0, "data", 64 * KB)

        def job():
            yield ReadFile(file, 0, 64 * KB)
            yield WriteFile(file, 0, 64 * KB)
            yield WriteMetadata(file)

        proc = kernel.spawn(job(), spu)
        kernel.run()
        assert proc.state is ProcessState.EXITED
        assert kernel.drives[0].stats.count() > 0

    def test_buffer_cache_pages_charged_to_spu(self):
        kernel, (spu,) = booted()
        file = kernel.fs.create(0, "data", 64 * KB)

        def job():
            yield ReadFile(file, 0, 64 * KB)

        kernel.spawn(job(), spu)
        kernel.run()
        assert spu.memory().used >= 16  # 64 KB = 16 pages cached


class TestDemandPaging:
    def test_working_set_ramp_is_zero_fill(self):
        kernel, (spu,) = booted()

        def job():
            yield SetWorkingSet(64, fault_cluster_pages=16)
            yield Compute(msecs(100))

        proc = kernel.spawn(job(), spu)
        kernel.run()
        assert proc.resident == 0  # pages freed at exit
        assert proc.fault_count >= 4
        # Zero-fill faults never touch the disk.
        assert kernel.drives[0].stats.count() == 0

    def test_exit_frees_pages(self):
        kernel, (spu,) = booted()

        def job():
            yield SetWorkingSet(64)
            yield Compute(msecs(50))

        kernel.spawn(job(), spu)
        kernel.run()
        assert spu.memory().used == 0

    def test_shrinking_working_set_frees_now(self):
        kernel, (spu,) = booted()
        snapshots = {}

        def job():
            yield SetWorkingSet(64, fault_cluster_pages=64)
            yield Compute(msecs(50))
            snapshots["before"] = spu.memory().used
            yield SetWorkingSet(8)
            snapshots["after"] = spu.memory().used
            yield Compute(msecs(1))

        kernel.spawn(job(), spu)
        kernel.run()
        assert snapshots["after"] < snapshots["before"]

    def test_memory_pressure_causes_swap_io(self):
        # Two hungry jobs in one SPU under quotas: stealing + swap-ins.
        kernel, (a, b) = booted(quota_scheme(), nspus=2, memory_mb=8)

        def hungry():
            yield SetWorkingSet(700, touches_per_ms=1.0)
            yield Compute(msecs(500))

        p1 = kernel.spawn(hungry(), a)
        p2 = kernel.spawn(hungry(), a)
        kernel.run()
        assert kernel.drives[0].stats.count() > 0  # paging hit the disk
        assert p1.fault_count + p2.fault_count > 700 * 2 / 8

    def test_isolated_spu_unaffected_by_neighbor_thrash(self):
        kernel, (a, b) = booted(piso_scheme(), nspus=2, memory_mb=8)

        def hungry():
            yield SetWorkingSet(900, touches_per_ms=1.0)
            yield Compute(msecs(300))

        def modest():
            yield SetWorkingSet(100)
            yield Compute(msecs(300))

        kernel.spawn(hungry(), a)
        kernel.spawn(hungry(), a)
        quiet = kernel.spawn(modest(), b)
        kernel.run()
        # b never lost pages: ramp faults only (100/8 = 13ish).
        assert quiet.paged_out == 0


class TestSchemeWiring:
    def test_smp_has_no_partition(self):
        kernel, _ = booted(smp_scheme())
        assert kernel.cpusched.partition is None

    def test_piso_partitions_cpus(self):
        kernel, spus = booted(piso_scheme(), nspus=2)
        assert kernel.cpusched.partition is not None

    def test_memory_daemon_only_with_limits(self):
        kernel, _ = booted(smp_scheme())
        assert kernel.memdaemon is None
        kernel2, _ = booted(piso_scheme())
        assert kernel2.memdaemon is not None

    def test_swap_mount_validation(self):
        kernel, (spu,) = booted()
        with pytest.raises(KernelError):
            kernel.set_swap_mount(spu, 5)
