"""Integration tests for shared-page accounting (paper Section 2.2/3.2).

Pages touched by multiple SPUs — shared libraries, common input files —
are recharged to the ``shared`` SPU, whose cost is effectively borne by
all user SPUs because entitlements are computed from the remaining
pool.
"""

import pytest

from repro.core import SHARED_SPU_ID, piso_scheme
from repro.disk.model import fast_disk
from repro.kernel import Compute, DiskSpec, Kernel, MachineConfig, ReadFile
from repro.sim.units import KB, msecs


@pytest.fixture
def kernel():
    k = Kernel(
        MachineConfig(ncpus=2, memory_mb=16,
                      disks=[DiskSpec(geometry=fast_disk())],
                      scheme=piso_scheme())
    )
    k.create_spu("a")
    k.create_spu("b")
    k.boot()
    return k


def reader(file):
    yield ReadFile(file, 0, file.size_bytes)
    yield Compute(msecs(5))


class TestSharedLibraryPages:
    def test_second_spu_touch_moves_pages_to_shared(self, kernel):
        spu_a, spu_b = kernel.registry.active_user_spus()
        libc = kernel.fs.create(0, "libc.so", 64 * KB)
        kernel.spawn(reader(libc), spu_a)
        kernel.run()
        assert spu_a.memory().used >= 16  # charged to the first toucher
        shared_before = kernel.registry.shared_spu.memory().used

        kernel.spawn(reader(libc), spu_b)
        kernel.run()
        shared_after = kernel.registry.shared_spu.memory().used
        assert shared_after - shared_before >= 16
        assert spu_a.memory().used == 0  # recharged away from A
        assert spu_b.memory().used == 0  # never charged to B at all

    def test_private_files_stay_private(self, kernel):
        spu_a, spu_b = kernel.registry.active_user_spus()
        mine = kernel.fs.create(0, "a-data", 32 * KB)
        yours = kernel.fs.create(0, "b-data", 32 * KB)
        kernel.spawn(reader(mine), spu_a)
        kernel.spawn(reader(yours), spu_b)
        kernel.run()
        assert kernel.registry.shared_spu.memory().used == 0
        assert spu_a.memory().used >= 8
        assert spu_b.memory().used >= 8

    def test_shared_growth_shrinks_everyones_entitlement(self, kernel):
        spu_a, spu_b = kernel.registry.active_user_spus()
        entitled_before = spu_a.memory().entitled
        libc = kernel.fs.create(0, "libc.so", 512 * KB)
        kernel.spawn(reader(libc), spu_a)
        kernel.run()
        kernel.spawn(reader(libc), spu_b)
        kernel.run()
        kernel.memdaemon.rebalance()
        # 128 shared pages came off the divisible pool: both SPUs'
        # entitlements dropped by ~64 pages.
        assert spu_a.memory().entitled <= entitled_before - 50
        assert spu_a.memory().entitled == pytest.approx(
            spu_b.memory().entitled, abs=1
        )

    def test_second_read_of_shared_file_hits_cache(self, kernel):
        spu_a, spu_b = kernel.registry.active_user_spus()
        libc = kernel.fs.create(0, "libc.so", 64 * KB)
        kernel.spawn(reader(libc), spu_a)
        kernel.run()
        requests_before = kernel.drives[0].stats.count()
        kernel.spawn(reader(libc), spu_b)
        kernel.run()
        assert kernel.drives[0].stats.count() == requests_before
