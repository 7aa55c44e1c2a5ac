"""Integration tests for the filesystem over a simulated drive."""

import pytest

from repro.core import SHARED_SPU_ID, SPURegistry
from repro.disk import DiskDrive, DiskOp, SpuBandwidthLedger, hp97560, make_scheduler
from repro.fs import BufferCache, FileSystem, UnlimitedPageProvider, Volume
from repro.sim import Engine
from repro.sim.units import KB, PAGE_SIZE
from tests.disk_recorder import record_requests


@pytest.fixture
def fs_setup():
    engine = Engine(seed=5)
    registry = SPURegistry()
    spu = registry.create("u")
    spu.disk_bw().set_entitled(1)
    geometry = hp97560()
    drive = DiskDrive(
        engine, geometry, make_scheduler("pos"), SpuBandwidthLedger(0, registry)
    )
    volume = Volume(geometry.total_sectors, engine.fork_rng("vol"))
    cache = BufferCache(UnlimitedPageProvider(64))
    fs = FileSystem(engine, cache)
    fs.mount(drive, volume)
    return engine, fs, drive, cache, spu


def read_all(engine, fs, file, spu_id, pid=1, chunk=8 * KB):
    done = []
    state = {"off": 0}

    def step():
        if state["off"] >= file.size_bytes:
            done.append(engine.now)
            return
        n = min(chunk, file.size_bytes - state["off"])
        fs.read(pid, spu_id, file, state["off"], n, advance)

    def advance():
        state["off"] += chunk
        step()

    step()
    engine.run()
    assert done, "read did not complete"
    return done[0]


class TestRead:
    def test_cold_read_hits_disk(self, fs_setup):
        engine, fs, drive, _cache, spu = fs_setup
        file = fs.create(0, "f", 32 * KB)
        read_all(engine, fs, file, spu.spu_id)
        assert drive.stats.count() > 0
        assert drive.stats.total_sectors() >= file.nsectors

    def test_warm_read_is_free(self, fs_setup):
        engine, fs, drive, _cache, spu = fs_setup
        file = fs.create(0, "f", 32 * KB)
        read_all(engine, fs, file, spu.spu_id)
        before = drive.stats.count()
        read_all(engine, fs, file, spu.spu_id, pid=2)
        assert drive.stats.count() == before

    def test_blocks_cached_under_requesting_spu(self, fs_setup):
        engine, fs, _drive, cache, spu = fs_setup
        file = fs.create(0, "f", 8 * KB)
        read_all(engine, fs, file, spu.spu_id)
        assert cache.blocks[(file.file_id, 0)].spu_charged == spu.spu_id

    def test_sequential_read_triggers_prefetch(self, fs_setup):
        engine, fs, drive, cache, spu = fs_setup
        file = fs.create(0, "f", 256 * KB)
        read_all(engine, fs, file, spu.spu_id)
        # Far fewer requests than blocks: prefetch batched them.
        assert drive.stats.count() < file.nblocks

    def test_out_of_range_read_rejected(self, fs_setup):
        _engine, fs, _drive, _cache, spu = fs_setup
        file = fs.create(0, "f", 8 * KB)
        with pytest.raises(Exception):
            fs.read(1, spu.spu_id, file, 0, 9 * KB, lambda: None)

    def test_fragmented_file_needs_more_requests(self, fs_setup):
        engine, fs, drive, _cache, spu = fs_setup
        contiguous = fs.create(0, "c", 64 * KB)
        read_all(engine, fs, contiguous, spu.spu_id)
        contiguous_requests = drive.stats.count()
        fragmented = fs.create(0, "g", 64 * KB, fragmented=True, extent_sectors=16)
        read_all(engine, fs, fragmented, spu.spu_id, pid=3)
        assert drive.stats.count() - contiguous_requests > contiguous_requests


class TestWrite:
    def test_write_is_delayed(self, fs_setup):
        engine, fs, drive, cache, spu = fs_setup
        file = fs.create(0, "f", 32 * KB)
        done = []
        fs.write(1, spu.spu_id, file, 0, 32 * KB, lambda: done.append(engine.now))
        engine.run()
        assert done
        assert cache.dirty_count() == 8
        assert drive.stats.count() == 0  # nothing flushed yet

    def test_writeback_daemon_flushes(self, fs_setup):
        engine, fs, drive, cache, spu = fs_setup
        requests = record_requests(drive)
        fs.start_daemons()
        file = fs.create(0, "f", 32 * KB)
        fs.write(1, spu.spu_id, file, 0, 32 * KB, lambda: None)
        engine.run(until=2_000_000)
        assert cache.dirty_count() == 0
        writes = [r for r in requests if r.op is DiskOp.WRITE]
        assert writes
        assert all(r.spu_id == SHARED_SPU_ID for r in writes)

    def test_flush_charges_owner_spu(self, fs_setup):
        engine, fs, drive, _cache, spu = fs_setup
        fs.start_daemons()
        file = fs.create(0, "f", 32 * KB)
        fs.write(1, spu.spu_id, file, 0, 32 * KB, lambda: None)
        engine.run(until=2_000_000)
        assert drive.ledger.usage_ratio(spu.spu_id, engine.now) > 0
        assert drive.ledger.usage_ratio(SHARED_SPU_ID, engine.now) == 0

    def test_write_blocks_under_memory_pressure(self, fs_setup):
        engine, fs, drive, cache, spu = fs_setup
        requests = record_requests(drive)
        # Cache holds 64 pages; write 128 blocks -> must flush mid-way.
        file = fs.create(0, "f", 512 * KB)
        done = []
        fs.write(1, spu.spu_id, file, 0, 512 * KB, lambda: done.append(True))
        engine.run()
        assert done
        writes = [r for r in requests if r.op is DiskOp.WRITE]
        assert writes  # pressure forced flushing before completion

    def test_write_then_read_hits_cache(self, fs_setup):
        engine, fs, drive, _cache, spu = fs_setup
        requests = record_requests(drive)
        file = fs.create(0, "f", 16 * KB)
        fs.write(1, spu.spu_id, file, 0, 16 * KB, lambda: None)
        engine.run()
        read_all(engine, fs, file, spu.spu_id)
        assert all(r.op is not DiskOp.READ for r in requests)


class TestMetadata:
    def test_metadata_write_is_synchronous_one_sector(self, fs_setup):
        engine, fs, drive, _cache, spu = fs_setup
        requests = record_requests(drive)
        file = fs.create(0, "f", 8 * KB)
        done = []
        fs.write_metadata(1, spu.spu_id, file, lambda: done.append(engine.now))
        engine.run()
        assert done
        (request,) = requests
        assert request.nsectors == 1
        assert request.sector == file.metadata_sector


class TestMounts:
    def test_bad_mount_rejected(self, fs_setup):
        _engine, fs, _drive, _cache, _spu = fs_setup
        with pytest.raises(Exception):
            fs.create(7, "f", KB)

    def test_files_route_to_their_drive(self):
        engine = Engine(seed=1)
        registry = SPURegistry()
        spu = registry.create("u")
        spu.disk_bw().set_entitled(1)
        geometry = hp97560()
        drives = [
            DiskDrive(engine, geometry, make_scheduler("pos"),
                      SpuBandwidthLedger(i, registry), disk_id=i)
            for i in range(2)
        ]
        cache = BufferCache(UnlimitedPageProvider(64))
        fs = FileSystem(engine, cache)
        for drive in drives:
            fs.mount(drive, Volume(geometry.total_sectors, engine.fork_rng(f"v{drive.disk_id}")))
        file = fs.create(1, "f", 8 * KB)
        read_all(engine, fs, file, spu.spu_id)
        assert drives[1].stats.count() > 0
        assert drives[0].stats.count() == 0
