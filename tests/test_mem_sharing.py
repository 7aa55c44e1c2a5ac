"""Unit tests for the memory-sharing daemon."""

import random

import pytest

from repro.core import (
    EqualShareContract,
    MILLI_CPU,
    SPURegistry,
    WeightedContract,
    piso_scheme,
    quota_scheme,
)
from repro.disk.model import fast_disk
from repro.kernel import DiskSpec, Kernel, MachineConfig
from repro.mem import MemoryManager, MemorySharingDaemon
from repro.sim import Engine
from repro.sim.units import MSEC

EQUAL = EqualShareContract()


def build(scheme, total_pages=120, kernel_pages=20):
    engine = Engine(seed=2)
    registry = SPURegistry()
    a = registry.create("a")
    b = registry.create("b")
    manager = MemoryManager(
        registry, total_pages, scheme, kernel_pages=kernel_pages,
        rng=random.Random(0),
    )
    daemon = MemorySharingDaemon(engine, manager, lambda: EQUAL)
    daemon.rebalance()  # initial entitlement pass
    return engine, manager, daemon, a, b


class TestEntitlements:
    def test_initial_split(self):
        _e, _m, _d, a, b = build(piso_scheme())
        assert a.memory().entitled == 50
        assert b.memory().entitled == 50

    def test_shared_usage_shrinks_entitlements(self):
        engine, manager, daemon, a, b = build(piso_scheme())
        for _ in range(10):
            manager.try_allocate(manager.registry.shared_spu.spu_id)
        daemon.rebalance()
        assert a.memory().entitled == 45
        assert b.memory().entitled == 45


class TestSharing:
    def test_idle_pages_lent_to_pressured_spu(self):
        _e, manager, daemon, a, b = build(piso_scheme())
        for _ in range(50):
            manager.try_allocate(b.spu_id)
        manager.try_allocate(b.spu_id)  # denial -> pressure signal
        daemon.rebalance()
        assert b.memory().allowed > b.memory().entitled
        assert daemon.loans.get(b.spu_id, 0) > 0

    def test_loan_respects_reserve_threshold(self):
        _e, manager, daemon, a, b = build(piso_scheme())
        for _ in range(50):
            manager.try_allocate(b.spu_id)
        manager.try_allocate(b.spu_id)
        daemon.rebalance()
        # free = 50, reserve = 9 (8% of 120 rounded down) -> at most 41
        # more than current usage... allowed <= used + free - reserve.
        assert b.memory().allowed <= b.memory().used + manager.free_pages - manager.reserve_pages

    def test_no_loan_without_pressure(self):
        _e, manager, daemon, _a, b = build(piso_scheme())
        daemon.rebalance()
        assert b.memory().allowed == b.memory().entitled

    def test_loans_shrink_when_pressure_passes(self):
        _e, manager, daemon, _a, b = build(piso_scheme())
        for _ in range(50):
            manager.try_allocate(b.spu_id)
        manager.try_allocate(b.spu_id)
        daemon.rebalance()
        lent = b.memory().allowed
        # Pressure gone; usage drops; next pass reels the cap back in.
        for _ in range(30):
            manager.free(b.spu_id)
        daemon.rebalance()
        assert b.memory().allowed < lent
        assert b.memory().allowed == b.memory().entitled

    def test_quota_scheme_never_lends(self):
        _e, manager, daemon, _a, b = build(quota_scheme())
        for _ in range(50):
            manager.try_allocate(b.spu_id)
        manager.try_allocate(b.spu_id)
        daemon.rebalance()
        assert b.memory().allowed == max(b.memory().entitled, b.memory().used)

    def test_neediest_gets_larger_share(self):
        engine, manager, daemon, a, b = build(piso_scheme(), total_pages=220, kernel_pages=20)
        # Only b under pressure, with many denials.
        for _ in range(100):
            manager.try_allocate(b.spu_id)
        for _ in range(5):
            manager.try_allocate(b.spu_id)
        manager.try_allocate(a.spu_id)  # a: one allocation, no denial
        daemon.rebalance()
        assert daemon.loans.get(b.spu_id, 0) > daemon.loans.get(a.spu_id, 0)


class TestLifecycle:
    def test_start_schedules_periodic(self):
        engine, manager, daemon, _a, b = build(piso_scheme())
        daemon.start()
        for _ in range(50):
            manager.try_allocate(b.spu_id)
        manager.try_allocate(b.spu_id)
        engine.run(until=150_000)  # one rebalance period
        assert b.memory().allowed > b.memory().entitled
        daemon.stop()

    def test_double_start_rejected(self):
        _e, _m, daemon, _a, _b = build(piso_scheme())
        daemon.start()
        with pytest.raises(RuntimeError):
            daemon.start()

    def test_rebalance_with_no_users_is_noop(self):
        engine = Engine()
        registry = SPURegistry()
        manager = MemoryManager(registry, 50, piso_scheme(), rng=random.Random(0))
        daemon = MemorySharingDaemon(engine, manager, lambda: EQUAL)
        daemon.rebalance()  # must not raise


@pytest.fixture
def passes(monkeypatch):
    """The simulated times of every full pass."""
    times = []
    full = MemorySharingDaemon.rebalance

    def counted(daemon):
        times.append(daemon.engine.now)
        full(daemon)

    monkeypatch.setattr(MemorySharingDaemon, "rebalance", counted)
    return times


class TestGate:
    """The timer skips a pass that could change nothing."""

    def settled(self, scheme=piso_scheme):
        engine, manager, daemon, a, b = build(scheme())
        for _ in range(50):
            assert manager.try_allocate(b.spu_id)  # b is now at its cap
        daemon.rebalance()
        assert daemon.settled
        daemon.start()
        engine.run(until=150 * MSEC)  # the firing at 100 ms is skipped
        return engine, manager, daemon, a, b

    def test_a_settled_daemon_skips_its_pass(self, passes):
        engine, _m, daemon, _a, _b = self.settled()
        engine.run(until=550 * MSEC)
        assert passes == [0, 0]
        assert daemon.settled

    @pytest.mark.parametrize("scheme", [piso_scheme, quota_scheme])
    @pytest.mark.parametrize(
        "change",
        [
            pytest.param(lambda m, a, b: m.try_allocate(a.spu_id), id="alloc"),
            pytest.param(lambda m, a, b: m.try_allocate_n(a.spu_id, 3), id="alloc_n"),
            pytest.param(lambda m, a, b: m.free(b.spu_id), id="free"),
            pytest.param(lambda m, a, b: m.free_n(b.spu_id, 3), id="free_n"),
            pytest.param(lambda m, a, b: m.try_allocate(b.spu_id), id="denial"),
            pytest.param(
                lambda m, a, b: m.transfer(b.spu_id, m.registry.shared_spu.spu_id),
                id="transfer",
            ),
            pytest.param(lambda m, a, b: m.decommission(1), id="decommission"),
            pytest.param(lambda m, a, b: m.recommission(1), id="recommission"),
        ],
    )
    def test_the_next_pass_runs_after_a_change(self, passes, scheme, change):
        engine, manager, daemon, a, b = self.settled(scheme)
        generation = manager.generation
        change(manager, a, b)
        assert manager.generation != generation or manager.denials
        assert not daemon.settled
        engine.run(until=250 * MSEC)
        assert passes[2:] == [200 * MSEC]

    def test_a_lending_pass_owes_the_revoking_one(self, passes):
        engine, manager, daemon, _a, b = self.settled()
        assert not manager.try_allocate(b.spu_id)  # a denial: b borrows
        engine.run(until=250 * MSEC)
        assert daemon.loans
        assert not daemon.settled
        engine.run(until=550 * MSEC)
        assert passes[2:] == [200 * MSEC, 300 * MSEC]
        assert not daemon.loans


def two_spu_kernel(contract):
    kernel = Kernel(MachineConfig(
        ncpus=2, memory_mb=16, disks=[DiskSpec(geometry=fast_disk())],
        scheme=piso_scheme(), contract=contract,
    ))
    a = kernel.create_spu("a")
    b = kernel.create_spu("b")
    kernel.boot()
    return kernel, a, b


class TestContractSwap:
    """The daemon divides memory by the kernel's current contract."""

    def test_set_contract_reweights_memory(self):
        kernel, a, b = two_spu_kernel(WeightedContract({"a": 1, "b": 1}))
        kernel.run(until=150 * MSEC)
        assert (a.memory().entitled, b.memory().entitled) == (1920, 1920)
        kernel.set_contract(WeightedContract({"a": 1, "b": 3}))
        assert (a.cpu().entitled, b.cpu().entitled) == (
            MILLI_CPU // 2, 3 * MILLI_CPU // 2
        )
        assert (a.memory().entitled, b.memory().entitled) == (960, 2880)
        kernel.run(until=250 * MSEC)
        assert (a.memory().entitled, b.memory().entitled) == (960, 2880)

    def test_a_deferred_swap_owes_the_next_pass(self, passes):
        kernel, a, b = two_spu_kernel(WeightedContract({"a": 1, "b": 1}))
        kernel.run(until=150 * MSEC)
        assert kernel.memdaemon.settled
        kernel.set_contract(WeightedContract({"a": 1, "b": 3}), rebalance=False)
        assert not kernel.memdaemon.settled
        kernel.run(until=250 * MSEC)
        assert 200 * MSEC in passes
        assert (a.memory().entitled, b.memory().entitled) == (960, 2880)
