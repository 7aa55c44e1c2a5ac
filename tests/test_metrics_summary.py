"""Tests for machine run summaries."""

import json

import pytest

from repro.core import piso_scheme
from repro.disk.model import fast_disk
from repro.kernel import Compute, DiskSpec, Kernel, MachineConfig, ReadFile
from repro.metrics import format_report, machine_report, to_records
from repro.sim.units import KB, msecs


@pytest.fixture
def finished_kernel():
    kernel = Kernel(
        MachineConfig(ncpus=2, memory_mb=16,
                      disks=[DiskSpec(geometry=fast_disk())],
                      scheme=piso_scheme())
    )
    a = kernel.create_spu("alpha")
    b = kernel.create_spu("beta")
    kernel.boot()
    data = kernel.fs.create(0, "data", 64 * KB)

    def worker():
        yield ReadFile(data, 0, 64 * KB)
        yield Compute(msecs(100))

    kernel.spawn(worker(), a)
    kernel.spawn(iter([Compute(msecs(50))]), b)
    kernel.run()
    return kernel, a, b


class TestMachineReport:
    def test_headline_numbers(self, finished_kernel):
        kernel, _a, _b = finished_kernel
        report = machine_report(kernel)
        assert report.simulated_seconds > 0.1
        assert 0.0 < report.cpu_utilization <= 1.0
        assert report.context_switches > 0
        assert report.free_pages == kernel.memory.free_pages

    def test_per_spu_rows(self, finished_kernel):
        kernel, a, b = finished_kernel
        report = machine_report(kernel)
        by_name = {s.name: s for s in report.spus}
        assert by_name["alpha"].cpu_seconds == pytest.approx(0.1, rel=0.01)
        assert by_name["beta"].cpu_seconds == pytest.approx(0.05, rel=0.01)
        assert by_name["alpha"].disk_requests > 0
        assert by_name["beta"].disk_requests == 0
        assert by_name["alpha"].processes == 1

    def test_per_disk_rows(self, finished_kernel):
        kernel, _a, _b = finished_kernel
        report = machine_report(kernel)
        (disk,) = report.disks
        assert disk.requests > 0
        assert disk.sectors >= 128
        assert 0.0 <= disk.utilization <= 1.0

    def test_report_before_boot(self):
        kernel = Kernel(
            MachineConfig(ncpus=2, memory_mb=16,
                          disks=[DiskSpec(geometry=fast_disk())],
                          scheme=piso_scheme())
        )
        report = machine_report(kernel)
        assert report.simulated_seconds == 0.0
        assert report.loans_granted == 0

    def test_format_report_renders(self, finished_kernel):
        kernel, _a, _b = finished_kernel
        text = format_report(machine_report(kernel))
        assert "alpha" in text
        assert "cpu" in text
        assert "wait ms" in text

    def test_report_exports_to_json(self, finished_kernel):
        kernel, _a, _b = finished_kernel
        text = json.dumps(to_records(machine_report(kernel)))
        assert '"cpu_utilization"' in text
