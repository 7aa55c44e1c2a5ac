"""Reproducibility: identical seeds must give identical runs."""

from repro.core import DiskSchedPolicy, piso_scheme
from repro.experiments import run_big_small_copy, run_memory_isolation, run_pmake8
from repro.kernel import Compute, DiskSpec, Kernel, MachineConfig, SetWorkingSet
from repro.disk.model import fast_disk
from repro.sim.units import msecs


def test_kernel_runs_replay_exactly():
    def build_and_run(seed):
        kernel = Kernel(
            MachineConfig(ncpus=2, memory_mb=8,
                          disks=[DiskSpec(geometry=fast_disk())],
                          scheme=piso_scheme(), seed=seed)
        )
        a = kernel.create_spu("a")
        b = kernel.create_spu("b")
        kernel.boot()

        def job():
            yield SetWorkingSet(600, touches_per_ms=1.0)
            yield Compute(msecs(200))

        procs = [kernel.spawn(job(), spu) for spu in (a, b, a)]
        kernel.run()
        return [(p.response_us, p.fault_count, p.cpu_time_us) for p in procs]

    assert build_and_run(11) == build_and_run(11)


def test_different_seeds_differ():
    # The memory experiment draws fault inter-arrivals and victim
    # choices from the seeded streams, so seeds move the numbers.
    a = run_memory_isolation(piso_scheme(), balanced=False, seed=0)
    b = run_memory_isolation(piso_scheme(), balanced=False, seed=99)
    assert a.spu2_response_us != b.spu2_response_us


def test_experiment_drivers_replay_exactly():
    a = run_pmake8(piso_scheme(), balanced=False, seed=3)
    b = run_pmake8(piso_scheme(), balanced=False, seed=3)
    assert a == b


def test_memory_experiment_replays_exactly():
    a = run_memory_isolation(piso_scheme(), balanced=False, seed=5)
    b = run_memory_isolation(piso_scheme(), balanced=False, seed=5)
    assert a == b


def test_chaos_journal_replays_byte_identical():
    # The chaos journal is the replay contract: the same seed must
    # produce the same plan, the same run, and the same journal text.
    from repro.chaos import generate_plan
    from repro.fuzz.runner import run_scenario
    from repro.sim.units import MSEC

    def journal(seed):
        plan = generate_plan(seed, horizon_us=1500 * MSEC)
        return "\n".join(run_scenario(plan).journal)

    assert journal(5) == journal(5)
    assert journal(5) != journal(6)
