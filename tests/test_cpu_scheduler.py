"""Unit tests for the SPU-aware CPU scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MILLI_CPU, piso_scheme, quota_scheme, smp_scheme, stride_scheme
from repro.cpu import CpuPartition, CpuScheduler, ProcessPriority, StrideCpuScheduler


class FakeProc:
    def __init__(self, pid, spu_id, base=20):
        self.pid = pid
        self.spu_id = spu_id
        self.priority = ProcessPriority(base=base)

    def __repr__(self):
        return f"P{self.pid}@{self.spu_id}"


def build(scheme, ncpus=2, spus=(1, 2)):
    partition = None
    if scheme.cpu_partitioned:
        share = ncpus * MILLI_CPU // len(spus)
        partition = CpuPartition(ncpus, {s: share for s in spus})
    return CpuScheduler(ncpus, scheme, partition)


class TestQueue:
    def test_enqueue_dequeue(self):
        sched = build(smp_scheme())
        proc = FakeProc(1, 1)
        sched.enqueue(proc)
        assert sched.waiting() == 1
        sched.dequeue(proc)
        assert sched.waiting() == 0

    def test_double_enqueue_rejected(self):
        sched = build(smp_scheme())
        proc = FakeProc(1, 1)
        sched.enqueue(proc)
        with pytest.raises(ValueError):
            sched.enqueue(proc)

    def test_waiting_by_spu(self):
        sched = build(smp_scheme())
        sched.enqueue(FakeProc(1, 1))
        sched.enqueue(FakeProc(2, 2))
        assert sched.waiting(1) == 1
        assert sched.waiting(2) == 1


class TestIndexDrift:
    def test_a_process_in_another_spus_queue(self):
        sched = build(smp_scheme())
        sched.enqueue(FakeProc(1, 1))
        sched.enqueue(FakeProc(2, 2))
        sched._queues[1].append(sched._queues[2].pop())
        assert sched.index_drift() == "process 2 of SPU 2 is queued on SPU 1"

    def test_a_process_queued_twice(self):
        sched = build(smp_scheme())
        proc = FakeProc(1, 1)
        sched.enqueue(proc)
        sched._queues[1].append(proc)
        sched._nwaiting += 1
        assert sched.index_drift() == "process 1 is queued twice"


class TestSmpPick:
    def test_any_cpu_takes_best_priority(self):
        sched = build(smp_scheme())
        low = FakeProc(1, 1, base=30)
        high = FakeProc(2, 2, base=10)
        sched.enqueue(low)
        sched.enqueue(high)
        picked = sched.pick(sched.processors[0], now=0)
        assert picked is high

    def test_pick_marks_running(self):
        sched = build(smp_scheme())
        proc = FakeProc(1, 1)
        sched.enqueue(proc)
        cpu = sched.processors[0]
        sched.pick(cpu, 0)
        assert cpu.running is proc
        assert not cpu.on_loan

    def test_pick_on_busy_cpu_rejected(self):
        sched = build(smp_scheme())
        sched.enqueue(FakeProc(1, 1))
        cpu = sched.processors[0]
        sched.pick(cpu, 0)
        with pytest.raises(ValueError):
            sched.pick(cpu, 0)

    def test_empty_queue_picks_none(self):
        sched = build(smp_scheme())
        assert sched.pick(sched.processors[0], 0) is None

    def test_release(self):
        sched = build(smp_scheme())
        proc = FakeProc(1, 1)
        sched.enqueue(proc)
        cpu = sched.processors[0]
        sched.pick(cpu, 0)
        sched.release(cpu)
        assert cpu.idle


class TestPartitionedPick:
    def test_home_process_preferred(self):
        sched = build(quota_scheme())
        home_cpu = next(
            c for c in sched.processors if sched.home_of(c) == 1
        )
        foreign = FakeProc(1, 2, base=0)  # better priority, wrong SPU
        home = FakeProc(2, 1, base=30)
        sched.enqueue(foreign)
        sched.enqueue(home)
        assert sched.pick(home_cpu, 0) is home

    def test_quota_never_borrows(self):
        sched = build(quota_scheme())
        cpu1 = next(c for c in sched.processors if sched.home_of(c) == 1)
        sched.enqueue(FakeProc(1, 2))
        assert sched.pick(cpu1, 0) is None

    def test_piso_borrows_when_home_idle(self):
        sched = build(piso_scheme())
        cpu1 = next(c for c in sched.processors if sched.home_of(c) == 1)
        foreign = FakeProc(1, 2)
        sched.enqueue(foreign)
        picked = sched.pick(cpu1, 0)
        assert picked is foreign
        assert cpu1.on_loan
        assert sched.loans_granted == 1


class TestFindCpu:
    def test_prefers_home_cpu(self):
        sched = build(piso_scheme())
        proc = FakeProc(1, 2)
        cpu = sched.find_cpu_for(proc)
        assert sched.home_of(cpu) == 2

    def test_lends_any_idle_when_home_busy(self):
        sched = build(piso_scheme())
        cpu2 = next(c for c in sched.processors if sched.home_of(c) == 2)
        blocker = FakeProc(9, 2)
        sched.enqueue(blocker)
        sched.pick(cpu2, 0)
        cpu = sched.find_cpu_for(FakeProc(1, 2))
        assert cpu is not None and sched.home_of(cpu) == 1

    def test_quota_returns_none_when_home_busy(self):
        sched = build(quota_scheme())
        cpu2 = next(c for c in sched.processors if sched.home_of(c) == 2)
        sched.enqueue(FakeProc(9, 2))
        sched.pick(cpu2, 0)
        assert sched.find_cpu_for(FakeProc(1, 2)) is None

    def test_none_when_all_busy(self):
        sched = build(smp_scheme())
        for i, cpu in enumerate(sched.processors):
            sched.enqueue(FakeProc(i, 1))
            sched.pick(cpu, 0)
        assert sched.find_cpu_for(FakeProc(99, 1)) is None


class TestRevocation:
    def test_loan_revoked_when_home_work_waits(self):
        sched = build(piso_scheme())
        cpu1 = next(c for c in sched.processors if sched.home_of(c) == 1)
        foreign = FakeProc(1, 2)
        sched.enqueue(foreign)
        sched.pick(cpu1, 0)  # SPU 2's process borrowed SPU 1's CPU
        sched.enqueue(FakeProc(2, 1))  # now SPU 1 has waiting work
        revoked = sched.revocations()
        assert revoked == [cpu1]
        assert sched.loans_revoked == 1

    def test_no_revocation_when_home_cpu_idle(self):
        sched = build(piso_scheme(), ncpus=4, spus=(1, 2))
        cpus1 = [c for c in sched.processors if sched.home_of(c) == 1]
        foreign = FakeProc(1, 2)
        sched.enqueue(foreign)
        sched.pick(cpus1[0], 0)
        sched.enqueue(FakeProc(2, 1))
        # The other home CPU is idle and can serve the waiter.
        assert sched.revocations() == []

    def test_no_revocation_without_waiting_work(self):
        sched = build(piso_scheme())
        cpu1 = next(c for c in sched.processors if sched.home_of(c) == 1)
        sched.enqueue(FakeProc(1, 2))
        sched.pick(cpu1, 0)
        assert sched.revocations() == []

    def test_smp_never_revokes(self):
        sched = build(smp_scheme())
        sched.enqueue(FakeProc(1, 1))
        sched.pick(sched.processors[0], 0)
        sched.enqueue(FakeProc(2, 1))
        assert sched.revocations() == []

    def test_one_revocation_per_waiter(self):
        sched = build(piso_scheme(), ncpus=4, spus=(1, 2))
        cpus1 = [c for c in sched.processors if sched.home_of(c) == 1]
        for i, cpu in enumerate(cpus1):
            sched.enqueue(FakeProc(i, 2))
            sched.pick(cpu, 0)  # both SPU-1 CPUs loaned out
        sched.enqueue(FakeProc(10, 1))  # one waiter
        assert len(sched.revocations()) == 1


class TestConstruction:
    def test_partitioned_scheme_requires_partition(self):
        with pytest.raises(ValueError):
            CpuScheduler(2, piso_scheme(), partition=None)


class SummingScheduler(CpuScheduler):
    """The scheduler before its waiting count (a test-only oracle).

    ``waiting()`` sums the run queues, and ``pick`` walks them even
    when every queue is empty.
    """

    __slots__ = ()

    def waiting(self, spu_id=None):
        if spu_id is not None:
            return len(self._queues.get(spu_id, []))
        return sum(len(q) for q in self._queues.values())

    def pick(self, cpu, now):
        if not cpu.idle:
            raise ValueError(f"cpu{cpu.cpu_id} is not idle")
        if not self.scheme.cpu_partitioned:
            proc = self._pop_best_foreign(home=None, now=now)
            loan = False
        else:
            home = self.home_of(cpu)
            proc = self._pop_best(home, now) if home is not None else None
            loan = False
            if proc is None and self.scheme.cpu_lending and now >= cpu.no_loan_until:
                proc = self._pop_best_foreign(home, now)
                loan = proc is not None
        if proc is None:
            return None
        cpu.running = proc
        cpu.on_loan = loan
        if loan:
            self.loans_granted += 1
        return proc


class SummingStrideScheduler(StrideCpuScheduler):
    """The stride scheduler before the waiting count (test-only oracle)."""

    __slots__ = ()

    waiting = SummingScheduler.waiting

    def pick(self, cpu, now):
        if not cpu.idle:
            raise ValueError(f"cpu{cpu.cpu_id} is not idle")
        backlogged = [spu for spu in self._pass if self.waiting(spu)]
        if not backlogged:
            return None
        chosen = min(backlogged, key=lambda s: (self._pass[s], s))
        proc = self._pop_best(chosen, now)
        cpu.running = proc
        cpu.on_loan = False
        return proc


PARTITIONED = {"smp": smp_scheme, "quo": quota_scheme, "piso": piso_scheme}
STEPS = ("enqueue", "dequeue", "pick", "release", "clock")


def twin_schedulers(scheme_name, ncpus, weights):
    """The counting scheduler and its summing oracle, built alike."""
    spus = range(1, len(weights) + 1)
    if scheme_name == "stride":
        tickets = {spu: 500 * w for spu, w in zip(spus, weights)}
        return (StrideCpuScheduler(ncpus, stride_scheme(), tickets),
                SummingStrideScheduler(ncpus, stride_scheme(), tickets))
    scheme = PARTITIONED[scheme_name]()
    capacity = ncpus * MILLI_CPU

    def make(cls):
        partition = None
        if scheme.cpu_partitioned:
            partition = CpuPartition(ncpus, {
                spu: capacity * w // sum(weights) for spu, w in zip(spus, weights)
            })
        return cls(ncpus, scheme, partition)

    return make(CpuScheduler), make(SummingScheduler)


@st.composite
def scheduler_runs(draw):
    """A scheme, a machine, processes, an optional filter, and steps."""
    scheme = draw(st.sampled_from(["smp", "quo", "piso", "stride"]))
    ncpus = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    procs = draw(st.lists(
        st.tuples(st.integers(0, len(weights) - 1), st.sampled_from([10, 20, 30])),
        min_size=1, max_size=8,
    ))
    rejected = draw(st.none() | st.sets(st.integers(1, len(procs)), min_size=1))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(STEPS), st.integers(0, 63)), max_size=80,
    ))
    return scheme, ncpus, weights, procs, rejected, steps


class TestAgainstSummingScheduler:
    @settings(max_examples=80, deadline=None)
    @given(scheduler_runs())
    def test_random_steps_match_the_summing_scheduler(self, run):
        scheme, ncpus, weights, specs, rejected, steps = run
        fast, slow = twin_schedulers(scheme, ncpus, weights)
        if rejected is not None:
            # A gang-style filter: some processes are never eligible.
            def eligible(proc, now):
                return proc.pid not in rejected

            fast.eligibility = slow.eligibility = eligible
        twins = [
            (FakeProc(pid, spu + 1, base), FakeProc(pid, spu + 1, base))
            for pid, (spu, base) in enumerate(specs, start=1)
        ]
        free = set(range(len(twins)))
        started = {}
        now = 0
        for step, arg in steps:
            if step == "enqueue" and free:
                i = sorted(free)[arg % len(free)]
                free.discard(i)
                fast.enqueue(twins[i][0])
                slow.enqueue(twins[i][1])
            elif step == "dequeue":
                i = arg % len(twins)
                queued = twins[i][0] in fast._queues.get(twins[i][0].spu_id, [])
                fast.dequeue(twins[i][0])
                slow.dequeue(twins[i][1])
                if queued:
                    free.add(i)
            elif step == "pick":
                cpu, twin_cpu = fast.processors[arg % ncpus], slow.processors[arg % ncpus]
                assert cpu.idle == twin_cpu.idle
                if cpu.idle:
                    got, want = fast.pick(cpu, now), slow.pick(twin_cpu, now)
                    assert (got and got.pid) == (want and want.pid)
                    if got is not None:
                        started[cpu.cpu_id] = now
            elif step == "release":
                cpu, twin_cpu = fast.processors[arg % ncpus], slow.processors[arg % ncpus]
                if cpu.running is not None:
                    # What the kernel's slice charge does before release.
                    used = now - started.pop(cpu.cpu_id)
                    for sched, c in ((fast, cpu), (slow, twin_cpu)):
                        c.running.priority.charge(used, now)
                        sched.on_usage(c.running.spu_id, used)
                    free.add(cpu.running.pid - 1)
                    fast.release(cpu)
                    slow.release(twin_cpu)
            elif step == "clock":
                now += (arg + 1) * 2500
                assert [c.cpu_id for c in fast.rotate_time_shared()] == \
                    [c.cpu_id for c in slow.rotate_time_shared()]

            assert fast.index_drift() is None
            assert fast.loans_granted == slow.loans_granted
            for spu_id in list(range(1, len(weights) + 1)) + [None]:
                assert fast.waiting(spu_id) == slow.waiting(spu_id)
            for proc, twin in twins:
                assert (proc.priority._recent_us, proc.priority._stamp) == \
                    (twin.priority._recent_us, twin.priority._stamp)
            for cpu, twin_cpu in zip(fast.processors, slow.processors):
                assert (cpu.running and cpu.running.pid, cpu.on_loan) == \
                    (twin_cpu.running and twin_cpu.running.pid, twin_cpu.on_loan)
            if scheme == "stride":
                assert fast._pass == slow._pass
