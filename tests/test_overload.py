"""Kernel overload hardening: limits, backpressure, OOM, escalation."""

import pytest

from repro.faults import InvariantWatchdog, OverloadGuard
from repro.kernel.kernel import Kernel
from repro.kernel.machine import MachineConfig
from repro.kernel.overload import OverloadPolicy
from repro.kernel.syscalls import (
    Compute,
    ReadFile,
    SetWorkingSet,
    Spawn,
    WaitChildren,
)
from repro.sim.units import KB, MSEC


def make_kernel(nspus=2, **overrides):
    config = MachineConfig(
        ncpus=2, memory_mb=8, overload=OverloadPolicy(**overrides)
    )
    kernel = Kernel(config)
    spus = [kernel.create_spu(f"spu{i}") for i in range(nspus)]
    kernel.boot()
    return kernel, spus


def worker(duration_us=50 * MSEC):
    yield Compute(duration_us)


class TestOverloadPolicy:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            OverloadPolicy(max_procs_per_spu=0)
        with pytest.raises(ValueError):
            OverloadPolicy(max_inflight_io_per_spu=0)
        with pytest.raises(ValueError):
            OverloadPolicy(spawn_backoff_us=-1)
        with pytest.raises(ValueError):
            OverloadPolicy(io_retry_us=0)
        with pytest.raises(ValueError):
            OverloadPolicy(io_deadline_us=0)
        with pytest.raises(ValueError):
            OverloadPolicy(oom_failure_streak=-1)

    def test_clamped_halves_with_floor(self):
        policy = OverloadPolicy()
        assert policy.clamped(64) == 32
        assert policy.clamped(1) == 1
        assert policy.clamped(None) is None


class TestSpawnLimit:
    def test_spawn_past_limit_fails_with_minus_one(self):
        kernel, (spu, _other) = make_kernel(
            max_procs_per_spu=4, spawn_backoff_us=5 * MSEC
        )
        pids = []

        def spawner():
            for _ in range(6):
                pid = yield Spawn(worker(), name="child")
                pids.append(pid)
            yield WaitChildren()

        kernel.spawn(spawner(), spu, name="parent")
        kernel.run()
        # Parent plus three children fill the limit of 4; the rest fail.
        assert [p != -1 for p in pids] == [True, True, True, False, False, False]
        assert kernel.spawn_denials[spu.spu_id] == 3

    def test_denied_spawn_pays_the_backoff(self):
        kernel, (spu, _other) = make_kernel(
            max_procs_per_spu=1, spawn_backoff_us=7 * MSEC
        )
        stamps = []

        def spawner():
            stamps.append(kernel.engine.now)
            pid = yield Spawn(worker(), name="child")
            stamps.append((pid, kernel.engine.now))

        kernel.spawn(spawner(), spu, name="parent")
        kernel.run()
        (issued, (pid, resumed)) = stamps
        assert pid == -1
        assert resumed - issued >= 7 * MSEC

    def test_admin_spawn_is_never_limited(self):
        kernel, (spu, _other) = make_kernel(max_procs_per_spu=1)
        for i in range(5):
            kernel.spawn(worker(1000), spu, name=f"admin-{i}")
        kernel.run()
        assert kernel.spawn_denials.get(spu.spu_id, 0) == 0


class TestIoAdmission:
    def make_readers(self, kernel, spu, n, file):
        results = []

        def reader():
            res = yield ReadFile(file, 0, 8 * KB)
            results.append(res)

        for i in range(n):
            kernel.spawn(reader(), spu, name=f"reader-{i}")
        return results

    def test_excess_io_waits_then_succeeds(self):
        kernel, (spu, _other) = make_kernel(
            max_inflight_io_per_spu=1, io_retry_us=1 * MSEC
        )
        file = kernel.fs.create(0, "data", 64 * KB)
        results = self.make_readers(kernel, spu, 3, file)
        kernel.run()
        # All three eventually complete (None = success), but the
        # overflow was throttled through the backpressure loop.
        assert results == [None, None, None]
        assert kernel.io_throttled[spu.spu_id] >= 1
        assert kernel.io_rejected.get(spu.spu_id, 0) == 0

    def test_io_past_deadline_fails_with_minus_one(self):
        kernel, (spu, _other) = make_kernel(
            max_inflight_io_per_spu=1, io_retry_us=1 * MSEC, io_deadline_us=2 * MSEC
        )
        # A long stream keeps the one admission slot busy while the
        # other readers sit at the deadline.
        big = kernel.fs.create(0, "big", 2048 * KB)

        def streamer():
            yield ReadFile(big, 0, 2048 * KB)

        kernel.spawn(streamer(), spu, name="streamer")
        file = kernel.fs.create(0, "data", 64 * KB)
        results = self.make_readers(kernel, spu, 2, file)
        kernel.run()
        assert -1 in results
        assert kernel.io_rejected[spu.spu_id] >= 1

    def test_throttle_halves_admission_limits(self):
        kernel, (spu, _other) = make_kernel(max_procs_per_spu=4)
        assert not kernel.spu_throttled(spu.spu_id)
        kernel.throttle_spu(spu.spu_id)
        assert kernel.spu_throttled(spu.spu_id)
        pids = []

        def spawner():
            for _ in range(3):
                pid = yield Spawn(worker(), name="child")
                pids.append(pid)
            yield WaitChildren()

        kernel.spawn(spawner(), spu, name="parent")
        kernel.run()
        # Throttled limit is 4 // 2 = 2: parent + one child.
        assert [p != -1 for p in pids] == [True, False, False]
        kernel.unthrottle_spu(spu.spu_id)
        assert not kernel.spu_throttled(spu.spu_id)


class TestKill:
    def test_kill_releases_pages_and_wakes_parent(self):
        kernel, (spu, _other) = make_kernel()
        child_box = []

        def hog():
            yield SetWorkingSet(pages=64)
            yield Compute(10_000 * MSEC)

        def parent():
            pid = yield Spawn(hog(), name="hog")
            child_box.append(pid)
            yield WaitChildren()

        kernel.spawn(parent(), spu, name="parent")
        kernel.run(until=100 * MSEC)
        victim = kernel.processes[child_box[0]]
        assert victim.alive and victim.resident > 0
        kernel.kill(victim, reason="test")
        kernel.run()
        assert not victim.alive
        assert victim.kill_reason == "test"
        # The parent's WaitChildren completed — the kill took the
        # ordinary exit path.
        assert all(not p.alive for p in kernel.processes.values())
        watchdog = InvariantWatchdog(kernel)
        watchdog.check()
        assert watchdog.violations == []


class TestOomKill:
    def test_kills_largest_offender_in_own_spu_only(self):
        kernel, (spu_a, spu_b) = make_kernel()

        def sized(pages):
            yield SetWorkingSet(pages=pages)
            yield Compute(10_000 * MSEC)

        small = kernel.spawn(sized(8), spu_a, name="small")
        big = kernel.spawn(sized(128), spu_a, name="big")
        bystander = kernel.spawn(sized(256), spu_b, name="bystander")
        kernel.run(until=200 * MSEC)
        victim = kernel.oom_kill(spu_a.spu_id)
        assert victim is big
        assert victim.kill_reason == "oom"
        assert small.alive and bystander.alive
        assert kernel.oom_kills[spu_a.spu_id] == 1

    def test_empty_spu_returns_none(self):
        kernel, (spu, _other) = make_kernel()
        assert kernel.oom_kill(spu.spu_id) is None
        assert kernel.oom_kills.get(spu.spu_id, 0) == 0


class TestOverloadGuard:
    def make_guard(self):
        kernel, (spu, _other) = make_kernel()
        return kernel, spu, OverloadGuard(kernel)

    def pressurise(self, kernel, spu, amount=50):
        kernel.spawn_denials[spu.spu_id] = (
            kernel.spawn_denials.get(spu.spu_id, 0) + amount
        )

    def test_escalation_ladder(self):
        kernel, spu, guard = self.make_guard()

        def hog():
            yield SetWorkingSet(pages=32)
            yield Compute(10_000 * MSEC)

        kernel.spawn(hog(), spu, name="hog")
        kernel.run(until=50 * MSEC)

        self.pressurise(kernel, spu)
        guard.check()  # hot x1: nothing yet
        assert guard.escalations == []
        self.pressurise(kernel, spu)
        guard.check()  # hot x2: throttle
        assert [e.stage for e in guard.escalations] == ["throttle"]
        assert kernel.spu_throttled(spu.spu_id)
        self.pressurise(kernel, spu)
        guard.check()  # hot x3: still throttled, not yet killed
        assert [e.stage for e in guard.escalations] == ["throttle"]
        self.pressurise(kernel, spu)
        guard.check()  # hot x4: kill, ladder re-arms one rung below
        assert [e.stage for e in guard.escalations] == ["throttle", "kill"]
        assert kernel.oom_kills[spu.spu_id] == 1
        self.pressurise(kernel, spu)
        guard.check()  # still hot: kills again immediately (re-armed)
        assert [e.stage for e in guard.escalations] == [
            "throttle", "kill", "kill",
        ]

    def test_cooling_down_resets_and_unthrottles(self):
        kernel, spu, guard = self.make_guard()
        self.pressurise(kernel, spu)
        guard.check()
        self.pressurise(kernel, spu)
        guard.check()
        assert kernel.spu_throttled(spu.spu_id)
        guard.check()  # no new pressure: cools down
        assert not kernel.spu_throttled(spu.spu_id)
        # The ladder restarted from zero: throttling needs two more
        # hot periods again.
        self.pressurise(kernel, spu)
        guard.check()
        assert len(guard.escalations) == 1
