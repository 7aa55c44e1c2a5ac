"""Tests for Checkpoint markers, latency distributions, and the
priority-inversion ablation."""

import gc
import tracemalloc

import pytest

from repro.core import piso_scheme
from repro.disk.model import fast_disk
from repro.kernel import Checkpoint, Compute, DiskSpec, Kernel, MachineConfig, Sleep
from repro.sim.units import msecs
from repro.workloads import (
    InteractiveParams,
    burst_latencies_ms,
    cpu_hog,
    interactive_user,
    percentile,
)


def booted(ncpus=1):
    kernel = Kernel(
        MachineConfig(ncpus=ncpus, memory_mb=8,
                      disks=[DiskSpec(geometry=fast_disk())],
                      scheme=piso_scheme())
    )
    spu = kernel.create_spu("u")
    kernel.boot()
    return kernel, spu


class TestCheckpoint:
    def test_markers_record_time(self):
        kernel, spu = booted()

        def job():
            yield Checkpoint("start")
            yield Compute(msecs(10))
            yield Checkpoint("end")

        proc = kernel.spawn(job(), spu)
        kernel.run()
        (l1, t1), (l2, t2) = proc.checkpoints
        assert (l1, l2) == ("start", "end")
        assert t2 - t1 == msecs(10)

    def test_checkpoint_is_free(self):
        kernel, spu = booted()

        def job():
            for _ in range(100):
                yield Checkpoint("x")

        proc = kernel.spawn(job(), spu)
        kernel.run()
        assert proc.response_us == 0
        assert proc.cpu_time_us == 0

    def test_a_marker_retains_a_few_bytes(self):
        # A finished run keeps every marker.  As a (label, time) tuple
        # plus its int a marker cost 96.5 B; two columns keep it at a
        # list slot and 8 bytes of array (17.3 B measured).
        markers = 20_000
        kernel, spu = booted()

        def job():
            for _ in range(markers):
                yield Sleep(1)
                yield Checkpoint("tick")

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            proc = kernel.spawn(job(), spu)
            kernel.run()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(proc.checkpoints) == markers
        assert retained / markers < 24


class TestBurstLatencies:
    def test_uncontended_latencies_equal_burst(self):
        kernel, spu = booted(ncpus=2)
        params = InteractiveParams(bursts=5, burst_ms=2.0)
        proc = kernel.spawn(interactive_user(params), spu)
        kernel.run()
        latencies = burst_latencies_ms(proc, params)
        assert len(latencies) == 5
        assert all(l == pytest.approx(2.0, abs=0.01) for l in latencies)

    def test_contended_tail_visible(self):
        kernel, spu = booted(ncpus=1)
        params = InteractiveParams(bursts=20, burst_ms=1.0)
        proc = kernel.spawn(interactive_user(params), spu)
        kernel.spawn(cpu_hog(3000), spu)
        kernel.run()
        latencies = burst_latencies_ms(proc, params)
        # The p90 burst waited behind the hog's 30 ms slice.
        assert percentile(latencies, 0.9) > 5.0

    def test_mismatched_markers_rejected(self):
        class Stub:
            checkpoints = [("wake", 0)]

        with pytest.raises(ValueError):
            burst_latencies_ms(Stub(), InteractiveParams())


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.01) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)


class TestPriorityInversion:
    def test_inheritance_bounds_the_inversion(self):
        from repro.experiments import run_priority_inversion_ablation

        result = run_priority_inversion_ablation()
        # Without inheritance the high-priority process waits out the
        # medium hogs (~500 ms); with it, only the remaining critical
        # section (~100 ms).
        assert result.no_inheritance_wait_ms > 300
        assert result.inheritance_wait_ms < 150
        assert result.speedup > 2.5
