"""Tests for the utilization sampler."""

import pytest

from repro.core import piso_scheme
from repro.disk.model import fast_disk
from repro.kernel import Compute, DiskSpec, Kernel, MachineConfig, SetWorkingSet
from repro.metrics import UtilizationSampler
from repro.sim.units import msecs


def machine(seed=0):
    return MachineConfig(ncpus=2, memory_mb=8,
                         disks=[DiskSpec(geometry=fast_disk())],
                         scheme=piso_scheme(), seed=seed)


def spinner(ms):
    yield Compute(msecs(ms))


class TestUtilizationSampler:
    def test_samples_cpu_share(self):
        kernel = Kernel(machine())
        a = kernel.create_spu("a")
        b = kernel.create_spu("b")
        kernel.boot()
        sampler = UtilizationSampler(kernel, period=msecs(50))
        sampler.start()
        kernel.spawn(spinner(500), a)
        kernel.run()
        timeline = sampler.timeline_of(a)
        # One process on a two-CPU machine: its SPU's share is 50%.
        assert timeline.mean_cpu_share() == pytest.approx(0.5, abs=0.05)
        assert sampler.timeline_of(b).mean_cpu_share() == 0.0

    def test_memory_levels_sampled(self):
        kernel = Kernel(machine())
        a = kernel.create_spu("a")
        kernel.boot()
        sampler = UtilizationSampler(kernel, period=msecs(20))
        sampler.start()

        def job():
            yield SetWorkingSet(100, fault_cluster_pages=100)
            yield Compute(msecs(200))

        kernel.spawn(job(), a)
        kernel.run()
        assert sampler.timeline_of(a).peak_mem_used() >= 100

    def test_unknown_spu_raises(self):
        kernel = Kernel(machine())
        kernel.create_spu("a")
        kernel.boot()
        sampler = UtilizationSampler(kernel)
        with pytest.raises(KeyError):
            sampler.timeline_of(999)

    def test_double_start_rejected(self):
        kernel = Kernel(machine())
        kernel.create_spu("a")
        kernel.boot()
        sampler = UtilizationSampler(kernel)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()
        sampler.stop()

    def test_bad_period_rejected(self):
        kernel = Kernel(machine())
        with pytest.raises(ValueError):
            UtilizationSampler(kernel, period=0)

    def test_isolation_visible_in_timeline(self):
        # Under PIso a busy SPU's share never dips below entitlement
        # while it has runnable work, whatever the neighbour does.
        kernel = Kernel(machine())
        a = kernel.create_spu("a")
        b = kernel.create_spu("b")
        kernel.boot()
        sampler = UtilizationSampler(kernel, period=msecs(100))
        sampler.start()
        kernel.spawn(spinner(1000), a)
        for _ in range(4):
            kernel.spawn(spinner(1000), b)
        kernel.run(until=msecs(900))
        # a's entitlement is half the machine = 1 CPU; its single
        # process saturates exactly its share.
        assert sampler.timeline_of(a).min_cpu_share() >= 0.45
