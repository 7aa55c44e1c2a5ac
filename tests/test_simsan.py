"""SIMSAN tests: env gating, corruption detection, and the guarantee
that enabling the sanitizer never changes simulated behaviour."""

import pytest

from repro.chaos import generate_plan, run_chaos
from repro.core import piso_scheme
from repro.disk.drive import SpuBandwidthLedger
from repro.disk.model import fast_disk
from repro.kernel import Compute, DiskSpec, Kernel, MachineConfig, WriteFile
from repro.sanitizer import (
    ENV_ENABLE,
    ENV_EVERY,
    SanitizerError,
    SimSanitizer,
    check_stride,
    enabled,
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
        assert kernel.sanitizer.every == 1

    @pytest.mark.parametrize("value", ["0", "", "no", "off"])
    def test_falsy_values_leave_it_off(self, monkeypatch, value):
        monkeypatch.setenv(ENV_ENABLE, value)
        assert not enabled()

    def test_stride_env(self, monkeypatch):
        monkeypatch.setenv(ENV_ENABLE, "1")
        monkeypatch.setenv(ENV_EVERY, "5")
        assert check_stride() == 5
        kernel, _ = booted()
        assert kernel.sanitizer.every == 5

    def test_bad_stride_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_EVERY, "soon")
        with pytest.raises(ValueError):
            check_stride()

    def test_zero_stride_rejected(self):
        kernel, _ = booted()
        with pytest.raises(ValueError):
            SimSanitizer(kernel, every=0)


class TestCleanRuns:
    def test_compute_and_io_workload_passes(self, monkeypatch):
        monkeypatch.setenv(ENV_ENABLE, "1")
        kernel, (spu,) = booted()
        kernel.spawn(crunch(), spu)
        kernel.spawn(writer(kernel), spu)
        kernel.run()
        assert kernel.sanitizer.events_seen > 0
        assert kernel.sanitizer.checks_run > 0

    def test_stride_batches_full_checks(self, monkeypatch):
        monkeypatch.setenv(ENV_ENABLE, "1")
        monkeypatch.setenv(ENV_EVERY, "10")
        kernel, (spu,) = booted()
        kernel.spawn(crunch(), spu)
        kernel.run()
        san = kernel.sanitizer
        # The final Kernel.run() sweep adds one check on top of the
        # strided ones, so even short runs end fully verified.
        assert san.checks_run <= san.events_seen // 10 + 1

    def test_uninstall_stops_event_checks(self):
        kernel, (spu,) = booted()
        san = SimSanitizer(kernel)
        san.install()
        san.uninstall()
        spu.memory().used += 5  # would trip page conservation
        kernel.spawn(crunch(), spu)
        kernel.run(max_events=50)
        assert san.events_seen == 0
        spu.memory().used -= 5


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
        with pytest.raises(SanitizerError, match="page-conservation"):
            san.check()

    def test_free_list_leak(self):
        # The chaos suite's sabotage_page_leak shape: total grows while
        # the books do not.
        san = self.corrupted(lambda k, s: setattr(
            k.memory, "total_pages", k.memory.total_pages + 50
        ))
        with pytest.raises(SanitizerError, match="page-conservation"):
            san.check()

    def test_ledger_level_inversion(self):
        def mutate(kernel, spu):
            levels = spu.memory()
            levels.used = levels.allowed + 1

        san = self.corrupted(mutate)
        with pytest.raises(SanitizerError, match="ledger-sanity"):
            san.check()

    def test_cpu_books_diverge(self):
        san = self.corrupted(
            lambda k, s: k.cpu_busy_us.__setitem__(0, k.cpu_busy_us[0] + 1000),
            run=True,
        )
        with pytest.raises(SanitizerError, match="cpu-conservation"):
            san.check()

    def test_negative_cpu_counter(self):
        san = self.corrupted(lambda k, s: k.cpu_busy_us.__setitem__(0, -5))
        with pytest.raises(SanitizerError, match="cpu-conservation"):
            san.check()

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
        # Corruption introduced by the very last events is caught by the
        # closing check() in Kernel.run even with a large stride.
        monkeypatch.setenv(ENV_ENABLE, "1")
        monkeypatch.setenv(ENV_EVERY, "1000000")
        kernel, (spu,) = booted()

        def leaky():
            yield Compute(msecs(1))
            kernel.memory.total_pages += 50
            yield Compute(msecs(1))

        kernel.spawn(leaky(), spu)
        with pytest.raises(SanitizerError, match="page-conservation"):
            kernel.run()


class TestBehaviourUnchanged:
    def test_chaos_journal_identical_with_simsan(self, monkeypatch):
        horizon = 200 * MSEC
        monkeypatch.delenv(ENV_ENABLE, raising=False)
        plain = run_chaos(generate_plan(seed=3, horizon_us=horizon))
        monkeypatch.setenv(ENV_ENABLE, "1")
        sanitized = run_chaos(generate_plan(seed=3, horizon_us=horizon))
        assert sanitized.ok, sanitized.violations
        assert sanitized.journal == plain.journal
