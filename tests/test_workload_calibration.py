"""Calibration checks: the workloads match the paper's reported traffic.

Section 4.5: "The pmake makes a total of 300 requests to the disk ...
The copy makes a total of 1050 requests."  Our substitution table in
DESIGN.md promises the same order of magnitude; these tests pin it.
"""

import pytest

from repro.core import DiskSchedPolicy, piso_scheme
from repro.disk.model import hp97560
from repro.experiments.disk_bandwidth import (
    TABLE3_COPY,
    TABLE3_PMAKE,
    run_pmake_copy,
)
from repro.kernel import DiskSpec, Kernel, MachineConfig
from repro.workloads import copy_job, create_copy_files, create_pmake_files, pmake_job
from tests.disk_recorder import record_requests


def solo_kernel(seed=0):
    kernel = Kernel(
        MachineConfig(
            ncpus=2, memory_mb=44,
            disks=[DiskSpec(geometry=hp97560(seek_scale=0.5, media_scale=4))],
            scheme=piso_scheme(), seed=seed,
        )
    )
    spu = kernel.create_spu("solo")
    kernel.boot()
    return kernel, spu


class TestRequestCounts:
    def test_pmake_request_count_near_paper(self):
        kernel, spu = solo_kernel()
        files = create_pmake_files(kernel.fs, 0, TABLE3_PMAKE, job_name="cal")
        kernel.spawn(pmake_job(files, TABLE3_PMAKE), spu)
        kernel.run()
        count = kernel.drives[0].stats.count()
        # Paper: ~300 requests; accept the right order of magnitude.
        assert 150 <= count <= 600

    def test_copy_request_count_near_paper(self):
        kernel, spu = solo_kernel()
        src, dst = create_copy_files(kernel.fs, 0, TABLE3_COPY, name="cal")
        kernel.spawn(copy_job(src, dst, TABLE3_COPY), spu)
        kernel.run()
        count = kernel.drives[0].stats.count()
        # Paper: ~1050 requests for the 20 MB copy.
        assert 600 <= count <= 1500

    def test_pmake_requests_are_scattered(self):
        """Paper: pmake requests "are not all contiguous"."""
        kernel, spu = solo_kernel()
        files = create_pmake_files(kernel.fs, 0, TABLE3_PMAKE, job_name="cal")
        requests = record_requests(kernel.drives[0])
        kernel.spawn(pmake_job(files, TABLE3_PMAKE), spu)
        kernel.run()
        reqs = sorted(requests,
                      key=lambda r: r.start_time)
        contiguous = sum(
            1 for a, b in zip(reqs, reqs[1:]) if b.sector == a.last_sector + 1
        )
        assert contiguous < len(reqs) * 0.5

    def test_copy_requests_are_mostly_contiguous(self):
        """Paper: the copy's requests are "mostly contiguous sectors"."""
        kernel, spu = solo_kernel()
        src, dst = create_copy_files(kernel.fs, 0, TABLE3_COPY, name="cal")
        requests = record_requests(kernel.drives[0])
        kernel.spawn(copy_job(src, dst, TABLE3_COPY), spu)
        kernel.run()
        reqs = sorted(requests,
                      key=lambda r: r.start_time)
        contiguous = sum(
            1 for a, b in zip(reqs, reqs[1:]) if b.sector == a.last_sector + 1
        )
        assert contiguous > len(reqs) * 0.6

    def test_metadata_sector_rewritten_repeatedly(self):
        """Paper: "many repeated writes of meta-data to a single sector"."""
        kernel, spu = solo_kernel()
        files = create_pmake_files(kernel.fs, 0, TABLE3_PMAKE, job_name="cal")
        requests = record_requests(kernel.drives[0])
        kernel.spawn(pmake_job(files, TABLE3_PMAKE), spu)
        kernel.run()
        meta_writes = [
            r for r in requests
            if r.nsectors == 1 and r.sector == files.makefile.metadata_sector
        ]
        assert len(meta_writes) >= TABLE3_PMAKE.n_tasks
