"""Tests that the paper's tables/figures regenerate with the right shape.

Small job counts keep these fast; the full-scale numbers live in the
benchmark harness. What is asserted here is the *qualitative* claim of
each artifact — orderings and signs — not absolute values.
"""

import pytest

from repro.experiments import (
    run_figure1,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_table2,
    run_table3,
    run_table4,
)
from repro.experiments.table2 import PAPER_ALLOCATED


class TestTable2:
    def test_exact_paper_match(self):
        result = run_table2()
        assert result.allocated == PAPER_ALLOCATED
        assert result.matches_paper
        assert "exact match" in result.render()


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure1(burst_count=3, burst_period_s=40.0, burst_iterations=120)

    def test_interference_spikes_present(self, result):
        """J1 slows down while J2 runs — the paper's headline observation."""
        assert result.slowdown_factor > 1.1

    def test_baseline_recovers_between_bursts(self, result):
        assert result.j1_base_duration < result.j1_contended_duration

    def test_contention_correlation_strong(self, result):
        """§5.3 reports r = 0.83; the simulated series should correlate
        at least that strongly (the fluid model is less noisy than a
        real Ethernet cluster)."""
        assert result.correlation >= 0.7

    def test_burst_count(self, result):
        assert len(result.j2_active) == 3

    def test_render_mentions_paper_value(self, result):
        assert "0.830" in result.render()


@pytest.fixture(scope="module")
def table3_small():
    return run_table3(n_jobs=120, logs=("theta",), patterns=("rhvd", "rd"), seed=0)


class TestTable3:
    def test_all_cells_present(self, table3_small):
        assert len(table3_small.cells) == 2 * 4

    def test_balanced_beats_default_exec(self, table3_small):
        for pattern in ("rhvd", "rd"):
            default = table3_small.cell("theta", pattern, "default")
            balanced = table3_small.cell("theta", pattern, "balanced")
            assert balanced.exec_hours < default.exec_hours

    def test_adaptive_beats_default_exec(self, table3_small):
        for pattern in ("rhvd", "rd"):
            default = table3_small.cell("theta", pattern, "default")
            adaptive = table3_small.cell("theta", pattern, "adaptive")
            assert adaptive.exec_hours < default.exec_hours

    def test_wait_not_worse_under_balanced(self, table3_small):
        for pattern in ("rhvd", "rd"):
            default = table3_small.cell("theta", pattern, "default")
            balanced = table3_small.cell("theta", pattern, "balanced")
            assert balanced.wait_hours <= default.wait_hours * 1.05

    def test_render_contains_paper_columns(self, table3_small):
        out = table3_small.render()
        assert "paper default" in out
        assert "2189" in out or "2,189" in out


class TestFigure6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure6(log="theta", n_jobs=150, seed=0)

    def test_gains_grow_with_comm_fraction_rhvd(self, result):
        """Paper: A < B < C (33% -> 50% -> 70% RHVD)."""
        assert result.mean_gain("A") < result.mean_gain("C")

    def test_gains_grow_with_comm_fraction_mixed(self, result):
        """Paper: D < E (50% -> 70% RD+binomial)."""
        assert result.mean_gain("D") < result.mean_gain("E")

    def test_all_sets_positive(self, result):
        for s in "ABCDE":
            assert result.mean_gain(s) > 0, s


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table4(n_jobs=200, n_samples=40, logs=("theta", "mira"),
                          patterns=("rhvd",), seed=0)

    def test_balanced_and_adaptive_positive(self, result):
        for key, imp in result.improvements.items():
            assert imp["balanced"] > 0, key
            assert imp["adaptive"] > 0, key

    def test_adaptive_at_least_balanced(self, result):
        for key, imp in result.improvements.items():
            assert imp["adaptive"] >= imp["balanced"] - 1e-9, key

    def test_theta_identical_across_algorithms(self, result):
        """The paper's signature Theta quirk: 16-node leaves make greedy
        and balanced coincide."""
        imp = result.improvements[("theta", "rhvd")]
        assert imp["greedy"] == pytest.approx(imp["balanced"], abs=0.5)


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure7(n_jobs=150, n_samples=40, seed=0)

    def test_individual_reductions_positive(self, result):
        assert result.mean_reduction_pct("individual", "adaptive") > 0

    def test_series_aligned(self, result):
        n = len(result.job_ids)
        for mode in ("continuous", "individual"):
            for series in result.series[mode].values():
                assert series.shape == (n,)

    def test_max_reduction_reported(self, result):
        assert result.max_reduction_pct("continuous", "adaptive") >= 0


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure8(log="theta", n_jobs=150, seed=0)

    def test_jobaware_costs_lower_on_average(self, result):
        assert result.avg_reduction["balanced"] > 0
        assert result.avg_reduction["adaptive"] > 0

    def test_buckets_nonempty(self, result):
        assert result.buckets
        for label, costs in result.buckets.items():
            assert set(costs) == {"default", "greedy", "balanced", "adaptive"}

    def test_cost_grows_with_job_size(self, result):
        defaults = [c["default"] for c in result.buckets.values()]
        assert defaults[-1] > defaults[0]


class TestFigure9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure9(log="intrepid", n_jobs=150, percents=(30.0, 90.0), seed=0)

    def test_balanced_improves_both_metrics_at_90(self, result):
        assert result.improvement(90.0, "balanced", "turnaround") > 0
        assert result.improvement(90.0, "balanced", "node_hours") > 0

    def test_gains_grow_with_percentage(self, result):
        """Paper §6.5: improvements increase with %comm-intensive."""
        assert result.improvement(90.0, "balanced", "node_hours") > (
            result.improvement(30.0, "balanced", "node_hours")
        )

    def test_throughput_computed_per_point(self, result):
        for percent in (30.0, 90.0):
            for name in ("default", "balanced"):
                assert result.throughput[percent][name] > 0

    def test_throughput_improvement_on_loaded_log(self):
        """§6.5 quotes throughput gains for the loaded machines; on an
        overloaded Theta log the balanced makespan shrinks."""
        loaded = run_figure9(log="theta", n_jobs=150, percents=(90.0,), seed=0)
        assert loaded.throughput_improvement(90.0, "balanced") > 0
