"""SIMSAN tests: env gating, corruption detection, and the guarantee
that enabling the sanitizer never changes simulated behaviour.

The ledger, page and CPU cases break a law that SIMSAN shares with the
invariant watchdog (:mod:`repro.faults.laws`), so each also checks that
the watchdog records the breach under the same name."""

import os
from dataclasses import replace

import pytest

from repro.chaos import generate_plan
from repro.core import piso_scheme
from repro.disk.drive import SpuBandwidthLedger
from repro.disk.model import fast_disk
from repro.faults import InvariantWatchdog
from repro.fuzz.runner import run_scenario
from repro.kernel import Compute, DiskSpec, Kernel, MachineConfig, NicSpec, WriteFile
from repro.net import MTU_BYTES
from repro.sanitizer import (
    ENV_ENABLE,
    SanitizerError,
    SimSanitizer,
    enabled,
    switched,
)
from repro.sim.units import KB, MSEC, msecs


def machine(seed=0):
    return MachineConfig(
        ncpus=2,
        memory_mb=16,
        disks=[DiskSpec(geometry=fast_disk())],
        scheme=piso_scheme(),
        seed=seed,
    )


def booted(nspus=1):
    kernel = Kernel(machine())
    spus = [kernel.create_spu(f"u{i}") for i in range(nspus)]
    kernel.boot()
    return kernel, spus


def crunch(rounds=3):
    for _ in range(rounds):
        yield Compute(msecs(1))


def writer(kernel):
    file = kernel.fs.create(0, "data", 256 * KB)

    def program():
        yield WriteFile(file, 0, 128 * KB)
        yield Compute(msecs(1))
        yield WriteFile(file, 128 * KB, 128 * KB)

    return program()


class TestEnvGating:
    def test_not_installed_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_ENABLE, raising=False)
        kernel, _ = booted()
        assert kernel.sanitizer is None

    @pytest.mark.parametrize("value", ["1", "true", "YES", "On"])
    def test_truthy_values_install_at_boot(self, monkeypatch, value):
        monkeypatch.setenv(ENV_ENABLE, value)
        assert enabled()
        kernel, _ = booted()
        assert isinstance(kernel.sanitizer, SimSanitizer)

    @pytest.mark.parametrize("value", ["0", "", "no", "off"])
    def test_falsy_values_leave_it_off(self, monkeypatch, value):
        monkeypatch.setenv(ENV_ENABLE, value)
        assert not enabled()

    @pytest.mark.parametrize("env", [None, "0", "1"])
    def test_switched_forces_the_kernels_booted_inside(self, monkeypatch, env):
        if env is None:
            monkeypatch.delenv(ENV_ENABLE, raising=False)
        else:
            monkeypatch.setenv(ENV_ENABLE, env)
        with switched(True):
            kernel, _ = booted()
        assert isinstance(kernel.sanitizer, SimSanitizer)
        with switched(False):
            kernel, _ = booted()
        assert kernel.sanitizer is None
        with switched(None):
            kernel, _ = booted()
        assert (kernel.sanitizer is not None) == (env == "1")
        # The environment is as it was.
        assert enabled() == (env == "1")
        assert os.environ.get(ENV_ENABLE) == env


class TestCleanRuns:
    def test_compute_and_io_workload_passes(self, monkeypatch):
        monkeypatch.setenv(ENV_ENABLE, "1")
        kernel, (spu,) = booted()
        kernel.spawn(crunch(), spu)
        kernel.spawn(writer(kernel), spu)
        kernel.run()
        assert kernel.sanitizer.events_seen > 0
        assert kernel.sanitizer.checks_run > 0
        # Every event gets the full suite, and Kernel.run one more.
        assert kernel.sanitizer.checks_run == kernel.sanitizer.events_seen + 1


def trips_both_checkers(san, law):
    """SIMSAN raises on ``law``, and the watchdog records it by name."""
    with pytest.raises(SanitizerError, match=law):
        san.check()
    watchdog = InvariantWatchdog(san.kernel)
    watchdog.check()
    assert law in {v.name for v in watchdog.violations}


class TestCorruptionDetection:
    def corrupted(self, mutate, run=False):
        kernel, (spu,) = booted()
        san = SimSanitizer(kernel)
        if run:
            kernel.spawn(crunch(), spu)
            kernel.spawn(writer(kernel), spu)
            kernel.run()
        mutate(kernel, spu)
        return san

    def test_page_ledger_inflation(self):
        san = self.corrupted(lambda k, s: setattr(
            s.memory(), "used", s.memory().used + 5
        ))
        trips_both_checkers(san, "page-conservation")

    def test_free_list_leak(self):
        # The chaos suite's sabotage_page_leak shape: total grows while
        # the books do not.
        san = self.corrupted(lambda k, s: setattr(
            k.memory, "total_pages", k.memory.total_pages + 50
        ))
        trips_both_checkers(san, "page-conservation")

    def test_ledger_level_inversion(self):
        def mutate(kernel, spu):
            levels = spu.memory()
            levels.used = levels.allowed + 1

        san = self.corrupted(mutate)
        trips_both_checkers(san, "ledger-sanity")

    def test_entitlement_above_allowed(self):
        def mutate(kernel, spu):
            levels = spu.memory()
            levels.entitled = levels.allowed + 1

        san = self.corrupted(mutate)
        trips_both_checkers(san, "ledger-sanity")

    def test_page_pool_below_one_page(self):
        def mutate(kernel, spu):
            kernel.memory.total_pages = 0
            kernel.memory.free_pages = -sum(
                s.memory().used for s in kernel.registry.all_spus()
            )

        san = self.corrupted(mutate)
        trips_both_checkers(san, "page-conservation")

    def test_cpu_books_diverge(self):
        san = self.corrupted(
            lambda k, s: k.cpu_busy_us.__setitem__(0, k.cpu_busy_us[0] + 1000),
            run=True,
        )
        trips_both_checkers(san, "cpu-conservation")

    def test_negative_cpu_counter(self):
        san = self.corrupted(lambda k, s: k.cpu_busy_us.__setitem__(0, -5))
        trips_both_checkers(san, "cpu-conservation")

    def test_disk_ledger_drift(self):
        def mutate(kernel, spu):
            ledger = kernel.drives[0].ledger
            assert isinstance(ledger, SpuBandwidthLedger)
            ledger.total_charged[spu.spu_id] = (
                ledger.total_charged.get(spu.spu_id, 0) + 8
            )

        san = self.corrupted(mutate, run=True)
        with pytest.raises(SanitizerError, match="disk-conservation"):
            san.check()

    def test_cache_index_drift(self):
        def mutate(kernel, spu):
            blocks = list(kernel.fs.cache.blocks.values())
            assert len(blocks) == 64 and all(b.dirty for b in blocks)
            blocks[0].dirty = False  # behind mark_clean's back

        san = self.corrupted(mutate, run=True)
        with pytest.raises(SanitizerError, match="cache-index"):
            san.check()

    def test_link_index_drift(self):
        kernel = Kernel(replace(machine(), nics=[NicSpec()]))
        a, b = kernel.create_spu("a"), kernel.create_spu("b")
        kernel.boot()
        link = kernel.links[0]
        link.send(a.spu_id, 3 * MTU_BYTES)  # the first packet goes on the wire
        link.send(b.spu_id, 3 * MTU_BYTES)
        san = SimSanitizer(kernel)
        san.check()
        link.fifos[a.spu_id].append(link.fifos[b.spu_id].popleft())
        with pytest.raises(
            SanitizerError,
            match=f"link-index: link 0: SPU {a.spu_id}'s FIFO holds another SPU's packet",
        ):
            san.check()

    def test_runqueue_count_drift(self):
        kernel, (spu,) = booted()
        for _ in range(3):  # two CPUs: the third process waits
            kernel.spawn(crunch(), spu)
        sched = kernel.cpusched
        assert sched.waiting() == 1
        san = SimSanitizer(kernel)
        san.check()
        sched._nwaiting += 1  # behind enqueue's back
        with pytest.raises(
            SanitizerError, match="runqueue: waiting count is 2, the queues hold 1"
        ):
            san.check()

    def test_memory_settled_drift(self):
        kernel, _spus = booted(nspus=2)
        kernel.run(until=150 * MSEC)  # one periodic pass settles the daemon
        san = SimSanitizer(kernel)
        san.check()
        manager = kernel.memory
        generation = manager.generation
        for _ in range(64):
            assert manager.try_allocate(kernel.registry.kernel_spu.spu_id)
        # Hide the smaller user pool from the gate: the daemon stays
        # settled, but a pass now would re-entitle both SPUs.
        manager.generation = generation
        assert kernel.memdaemon.settled
        with pytest.raises(
            SanitizerError, match=r"memory-settled: SPU 2: entitled 1920 \(want 1888\)"
        ):
            san.check()

    def test_mid_run_corruption_raises_from_the_event_loop(self):
        kernel, (spu,) = booted()
        san = SimSanitizer(kernel)
        san.install()
        kernel.spawn(crunch(10), spu)
        kernel.engine.after(
            msecs(2), lambda: setattr(kernel.memory, "total_pages",
                                      kernel.memory.total_pages + 50)
        )
        with pytest.raises(SanitizerError, match="page-conservation"):
            kernel.run()

    def test_backwards_clock_detected(self):
        kernel, (spu,) = booted()
        san = SimSanitizer(kernel)
        san.install()
        san._last_now = 10**12  # simulate a clock that already advanced
        kernel.spawn(crunch(), spu)
        with pytest.raises(SanitizerError, match="monotonic-time"):
            kernel.run()

    def test_final_sweep_catches_post_run_state(self, monkeypatch):
        # Corruption made outside any event (here, before a run with
        # nothing to do, so the post-event hook never fires) is caught
        # by the closing check() in Kernel.run.
        monkeypatch.setenv(ENV_ENABLE, "1")
        kernel, _ = booted()
        kernel.memory.total_pages += 50
        with pytest.raises(SanitizerError, match="page-conservation"):
            kernel.run()
        assert kernel.sanitizer.events_seen == 0


class TestBehaviourUnchanged:
    def test_chaos_journal_identical_with_simsan(self, monkeypatch):
        horizon = 200 * MSEC
        monkeypatch.delenv(ENV_ENABLE, raising=False)
        plain = run_scenario(generate_plan(seed=3, horizon_us=horizon))
        monkeypatch.setenv(ENV_ENABLE, "1")
        sanitized = run_scenario(generate_plan(seed=3, horizon_us=horizon))
        assert sanitized.ok, sanitized.violations
        assert sanitized.journal == plain.journal
