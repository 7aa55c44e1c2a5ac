"""Unit tests for metrics collection and reporting."""

import pytest

from repro.core import piso_scheme
from repro.disk.model import fast_disk
from repro.kernel import Compute, DiskSpec, Kernel, MachineConfig, Spawn, WaitChildren
from repro.metrics import (
    MetricsError,
    format_table,
    job_results,
    mean_response_by_spu,
    mean_response_us,
    normalize,
)
from repro.sim.units import msecs


@pytest.fixture
def finished_kernel():
    kernel = Kernel(
        MachineConfig(ncpus=4, memory_mb=16, disks=[DiskSpec(geometry=fast_disk())],
                      scheme=piso_scheme())
    )
    a = kernel.create_spu("a")
    b = kernel.create_spu("b")
    kernel.boot()

    def child():
        yield Compute(msecs(10))

    def job(ms):
        yield Spawn(child())
        yield Compute(msecs(ms))
        yield WaitChildren()

    kernel.spawn(job(100), a, name="job-a")
    kernel.spawn(job(200), b, name="job-b")
    kernel.run()
    return kernel, a, b


class TestJobResults:
    def test_top_level_only_by_default(self, finished_kernel):
        kernel, _a, _b = finished_kernel
        results = job_results(kernel)
        assert {r.name for r in results} == {"job-a", "job-b"}

    def test_children_included_on_request(self, finished_kernel):
        kernel, _a, _b = finished_kernel
        results = job_results(kernel, top_level_only=False)
        assert len(results) == 4

    def test_spu_filter(self, finished_kernel):
        kernel, a, _b = finished_kernel
        results = job_results(kernel, spu_ids=[a.spu_id])
        assert [r.name for r in results] == ["job-a"]

    def test_unfinished_process_raises(self):
        kernel = Kernel(
            MachineConfig(ncpus=1, memory_mb=16,
                          disks=[DiskSpec(geometry=fast_disk())],
                          scheme=piso_scheme())
        )
        spu = kernel.create_spu("a")
        kernel.boot()

        def job():
            yield Compute(msecs(10))

        kernel.spawn(job(), spu)
        with pytest.raises(MetricsError):
            job_results(kernel)


class TestAggregation:
    def test_mean_response(self, finished_kernel):
        kernel, _a, _b = finished_kernel
        results = job_results(kernel)
        mean = mean_response_us(results)
        assert mean == sum(r.response_us for r in results) / 2

    def test_mean_of_nothing_raises(self):
        with pytest.raises(MetricsError):
            mean_response_us([])

    def test_mean_by_spu(self, finished_kernel):
        kernel, a, b = finished_kernel
        by_spu = mean_response_by_spu(job_results(kernel))
        assert set(by_spu) == {a.spu_id, b.spu_id}
        assert by_spu[b.spu_id] > by_spu[a.spu_id]

    def test_normalize(self):
        assert normalize(150, 100) == 150.0
        assert normalize(100, 100) == 100.0

    def test_normalize_bad_baseline(self):
        with pytest.raises(MetricsError):
            normalize(1, 0)


class TestFormatting:
    def test_table_alignment(self):
        out = format_table(["name", "v"], [["a", 1], ["long-name", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]

    def test_table_with_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out
