"""Cross-cutting property-based tests on core invariants.

These complement the per-module tests with system-level properties:
event ordering under arbitrary schedules, disk work conservation, CPU
accounting conservation, and memory-page conservation under random
workload mixes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SPURegistry, piso_scheme, quota_scheme, smp_scheme
from repro.disk import DiskDrive, DiskOp, DiskRequest, hp97560, make_scheduler
from repro.disk.drive import SpuBandwidthLedger
from repro.disk.model import fast_disk
from repro.kernel import Compute, DiskSpec, Kernel, MachineConfig, SetWorkingSet
from repro.sim import Engine
from repro.sim.units import msecs
from tests.disk_recorder import record_requests


@given(
    delays=st.lists(st.integers(0, 1000), min_size=1, max_size=50),
)
def test_engine_fires_in_nondecreasing_time_order(delays):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.after(delay, lambda: fired.append(engine.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    requests=st.lists(
        st.tuples(
            st.sampled_from([2, 3]),            # SPU id
            st.integers(0, 100_000),            # sector
            st.integers(1, 64),                 # size
        ),
        min_size=1,
        max_size=40,
    ),
    policy=st.sampled_from(["pos", "iso", "piso", "fifo", "sstf"]),
)
@settings(max_examples=40, deadline=None)
def test_disk_serves_every_request_exactly_once(requests, policy):
    """Work conservation: whatever the policy, everything completes,
    and the disk is busy end-to-end (no idling with a non-empty queue)."""
    engine = Engine(seed=1)
    registry = SPURegistry()
    for name in ("a", "b"):
        registry.create(name).disk_bw().set_entitled(1)
    drive = DiskDrive(
        engine, hp97560(), make_scheduler(policy),
        SpuBandwidthLedger(0, registry),
    )
    completed = record_requests(drive)
    for spu_id, sector, size in requests:
        drive.submit(DiskRequest(spu_id, DiskOp.READ, sector, size))
    engine.run()
    assert drive.stats.count() == len(requests)
    assert drive.queue_depth() == 0
    # Busy end-to-end: completions tile the timeline without gaps.
    spans = sorted(
        (r.start_time, r.finish_time) for r in completed
    )
    for (s1, f1), (s2, _f2) in zip(spans, spans[1:]):
        assert s2 == f1  # next service starts the instant one ends


@given(
    njobs=st.integers(1, 6),
    duration_ms=st.integers(10, 200),
    scheme_name=st.sampled_from(["smp", "quo", "piso"]),
)
@settings(max_examples=25, deadline=None)
def test_cpu_time_is_conserved(njobs, duration_ms, scheme_name):
    """Every job receives exactly the CPU time it asked for, and the
    SPU accounts sum to the total handed out."""
    from repro.core import scheme_by_name

    kernel = Kernel(
        MachineConfig(ncpus=2, memory_mb=16,
                      disks=[DiskSpec(geometry=fast_disk())],
                      scheme=scheme_by_name(scheme_name), seed=njobs)
    )
    spus = [kernel.create_spu(f"u{i}") for i in range(2)]
    kernel.boot()
    procs = [
        kernel.spawn(
            iter([Compute(msecs(duration_ms))]), spus[i % 2]
        )
        for i in range(njobs)
    ]
    kernel.run()
    for proc in procs:
        assert proc.cpu_time_us == msecs(duration_ms)
    total_accounted = sum(
        kernel.cpu_account.total(spu.spu_id) for spu in spus
    )
    assert total_accounted == njobs * msecs(duration_ms)


@given(
    ws_sizes=st.lists(st.integers(8, 600), min_size=1, max_size=5),
    scheme_name=st.sampled_from(["smp", "quo", "piso"]),
)
@settings(max_examples=20, deadline=None)
def test_memory_pages_conserved_after_exit(ws_sizes, scheme_name):
    """All anonymous pages return to the pool when processes exit;
    kernel pages stay charged to the kernel SPU."""
    from repro.core import scheme_by_name

    kernel = Kernel(
        MachineConfig(ncpus=2, memory_mb=8,
                      disks=[DiskSpec(geometry=fast_disk())],
                      scheme=scheme_by_name(scheme_name), seed=len(ws_sizes))
    )
    spus = [kernel.create_spu(f"u{i}") for i in range(2)]
    kernel.boot()
    free_at_boot = kernel.memory.free_pages
    for i, ws in enumerate(ws_sizes):
        behavior = iter([
            SetWorkingSet(ws, touches_per_ms=2.0, fault_cluster_pages=32),
            Compute(msecs(50)),
        ])
        kernel.spawn(behavior, spus[i % 2])
    kernel.run()
    for spu in spus:
        # Only buffer-cache pages (none here: no file I/O) may remain.
        assert spu.memory().used == 0
    assert kernel.memory.free_pages == free_at_boot
    kernel_used = kernel.registry.kernel_spu.memory().used
    assert kernel_used == kernel.config.boot_kernel_pages


@given(seed=st.integers(0, 2**31))
@settings(max_examples=10, deadline=None)
def test_any_seed_completes_the_memory_workload(seed):
    """Robustness: no seed wedges the kernel (fault/steal interplay)."""
    kernel = Kernel(
        MachineConfig(ncpus=2, memory_mb=8,
                      disks=[DiskSpec(geometry=fast_disk())],
                      scheme=piso_scheme(), seed=seed)
    )
    a = kernel.create_spu("a")
    b = kernel.create_spu("b")
    kernel.boot()
    for spu in (a, b):
        kernel.spawn(
            iter([SetWorkingSet(800, touches_per_ms=1.0), Compute(msecs(200))]),
            spu,
        )
    kernel.run(max_events=500_000)
    assert kernel.jobs_done()
