"""Integration tests: the paper's headline result *shapes* must hold.

These run the real experiment drivers (each a full machine simulation)
and assert the qualitative relationships the paper reports — who wins,
roughly by how much, where the crossovers are.  Absolute numbers are
not asserted; the substrate is a simulator, not the authors' testbed.
"""

import pytest

from repro.core import DiskSchedPolicy, piso_scheme, quota_scheme, smp_scheme
from repro.experiments import (
    run_big_small_copy,
    run_bw_threshold_sweep,
    run_cpu_isolation,
    run_figure_5,
    run_figure_7,
    run_figures_2_and_3,
    run_fractional_partition,
    run_lock_ablation,
    run_pmake_copy,
    run_table_4,
    TABLE1,
    TABLE2,
)


@pytest.fixture(scope="module")
def fig23():
    return run_figures_2_and_3()


@pytest.fixture(scope="module")
def fig5():
    return run_figure_5()


@pytest.fixture(scope="module")
def fig7():
    return run_figure_7()


@pytest.fixture(scope="module")
def table4():
    return run_table_4()


class TestFigure2Isolation:
    def test_smp_breaks_isolation(self, fig23):
        # Paper: light SPUs degrade 56% under SMP when load doubles.
        assert fig23["SMP"].fig2_unbalanced > 125

    def test_quota_isolates(self, fig23):
        r = fig23["Quo"]
        assert abs(r.fig2_unbalanced - r.fig2_balanced) < 10

    def test_piso_isolates(self, fig23):
        r = fig23["PIso"]
        assert r.fig2_unbalanced <= r.fig2_balanced + 10

    def test_balanced_configs_agree_across_schemes(self, fig23):
        # In the balanced placement all three schemes are equivalent.
        for r in fig23.values():
            assert 90 < r.fig2_balanced < 110


class TestFigure3Sharing:
    def test_quota_cannot_share(self, fig23):
        # Paper: Quo 187 vs SMP 156 — heavy SPUs pay for static quotas.
        assert fig23["Quo"].fig3_unbalanced > fig23["SMP"].fig3_unbalanced + 20

    def test_piso_matches_smp_throughput(self, fig23):
        # Paper: PIso 146 ~ SMP 156.
        assert fig23["PIso"].fig3_unbalanced <= fig23["SMP"].fig3_unbalanced + 10

    def test_piso_lends_cpus(self):
        run = __import__("repro.experiments.pmake8", fromlist=["run_pmake8"]).run_pmake8(
            piso_scheme(), balanced=False
        )
        assert run.loans_granted > 0


class TestFigure5:
    def test_isolation_helps_ocean(self, fig5):
        assert fig5["PIso"].ocean < 95
        assert fig5["Quo"].ocean < 95

    def test_quota_hurts_heavy_spu(self, fig5):
        assert fig5["Quo"].flashlite > 115
        assert fig5["Quo"].vcs > 115

    def test_piso_keeps_heavy_spu_near_smp(self, fig5):
        assert fig5["PIso"].flashlite < 112
        assert fig5["PIso"].vcs < 112


class TestFigure7:
    def test_smp_breaks_memory_isolation(self, fig7):
        # Paper: SPU1 degrades 45% under SMP.
        assert fig7["SMP"].isolation_unbalanced > 125

    def test_piso_isolates_memory(self, fig7):
        # Paper: only 13% under PIso.
        assert fig7["PIso"].isolation_unbalanced < 120

    def test_quota_sharing_collapse(self, fig7):
        # Paper: SPU2 +145% under Quo (100% CPU + 45% memory).
        assert fig7["Quo"].sharing_unbalanced > 220

    def test_piso_shares_memory(self, fig7):
        # Paper: PIso close to SMP (160 vs 150).
        assert fig7["PIso"].sharing_unbalanced < fig7["Quo"].sharing_unbalanced - 50

    def test_quota_pays_more_than_cpu_double(self, fig7):
        # The +45% beyond the CPU doubling is the memory penalty.
        assert fig7["Quo"].sharing_unbalanced > 200


class TestTable3:
    def test_piso_rescues_pmake_and_taxes_copy(self):
        pos = run_pmake_copy(DiskSchedPolicy.POS)
        piso = run_pmake_copy(DiskSchedPolicy.PISO)
        # Paper: pmake -39%, wait -76%, copy +23%.
        assert piso.response_a_s < 0.75 * pos.response_a_s
        assert piso.wait_a_ms < 0.8 * pos.wait_a_ms
        assert piso.response_b_s > pos.response_b_s
        # Head-position awareness keeps latency about flat.
        assert piso.latency_ms < 1.25 * pos.latency_ms


class TestTable4:
    def test_pos_locks_out_small_copy(self, table4):
        pos = table4["pos"]
        # The small copy finishes only after the big one.
        assert pos.response_a_s >= pos.response_b_s
        assert pos.wait_a_ms > 4 * pos.wait_b_ms

    def test_iso_frees_small_but_pays_seeks(self, table4):
        pos, iso = table4["pos"], table4["iso"]
        assert iso.response_a_s < 0.75 * pos.response_a_s
        assert iso.response_b_s > pos.response_b_s
        assert iso.latency_ms > 1.1 * pos.latency_ms  # paper: +28%

    def test_piso_beats_iso_on_both_jobs(self, table4):
        iso, piso = table4["iso"], table4["piso"]
        assert piso.response_a_s <= iso.response_a_s
        assert piso.response_b_s <= iso.response_b_s

    def test_piso_latency_near_pos(self, table4):
        pos, piso = table4["pos"], table4["piso"]
        assert piso.latency_ms < 1.15 * pos.latency_ms


class TestAblations:
    def test_lock_fix_improves_20_to_30_percent(self):
        result = run_lock_ablation()
        assert 10 <= result.improvement_percent <= 40
        assert result.rwlock_contentions < result.mutex_contentions

    def test_threshold_extremes_match_neighbors(self):
        points = run_bw_threshold_sweep(thresholds=(0.0, 10**9))
        zero, infinite = points
        pos = run_big_small_copy(DiskSchedPolicy.POS)
        # Infinite threshold degenerates to position-only scheduling.
        assert infinite.small_response_s == pytest.approx(pos.response_a_s, rel=0.05)
        # Zero threshold protects the small copy far better.
        assert zero.small_response_s < 0.6 * infinite.small_response_s

    def test_fractional_partition_is_fair(self):
        result = run_fractional_partition()
        assert result.max_imbalance_percent < 5.0


class TestConfigTables:
    def test_table1_rows(self):
        assert set(TABLE1) == {
            "pmake8", "cpu_isolation", "memory_isolation", "disk_bandwidth",
        }
        assert TABLE1["pmake8"].ncpus == 8
        assert TABLE1["memory_isolation"].memory_mb == 16

    def test_table2_schemes(self):
        names = [spec.factory().name for spec in TABLE2]
        assert names == ["Quo", "PIso", "SMP"]


class TestRunnerCli:
    @pytest.mark.parametrize("argv", [
        ["experiments", "--seed", "-1", "fig5"],
        ["fig5", "--seed", "-1"],  # a bare section name means experiments
    ])
    def test_bad_numbers_are_usage_errors(self, argv, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
