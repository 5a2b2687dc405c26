"""Tests for the experiment runners (continuous + individual, §5.4)."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    continuous_runs,
    evaluate_single_job,
    individual_runs,
    prepare_jobs,
    warm_state,
)
from repro.cluster import ClusterState
from repro.workloads import single_pattern_mix

from ..conftest import make_comm_job, make_compute_job


@pytest.fixture(scope="module")
def small_cfg():
    return ExperimentConfig(log="theta", n_jobs=60, seed=1,
                            mix=single_pattern_mix("rd"))


class TestPrepareJobs:
    def test_job_count(self, small_cfg):
        assert len(prepare_jobs(small_cfg)) == 60

    def test_deterministic(self, small_cfg):
        a = prepare_jobs(small_cfg)
        b = prepare_jobs(small_cfg)
        assert [(j.job_id, j.kind, j.nodes) for j in a] == [
            (j.job_id, j.kind, j.nodes) for j in b
        ]

    def test_percent_comm_applied(self, small_cfg):
        jobs = prepare_jobs(small_cfg)
        n_multi = sum(1 for j in jobs if j.nodes > 1)
        n_comm = sum(1 for j in jobs if j.is_comm_intensive)
        assert n_comm <= n_multi
        assert n_comm >= int(0.8 * 0.9 * len(jobs) * 0.8)  # roughly 90%

    def test_with_override(self, small_cfg):
        cfg = small_cfg.with_(percent_comm=0.0)
        jobs = prepare_jobs(cfg)
        assert not any(j.is_comm_intensive for j in jobs)


class TestTopologyMemo:
    def test_one_topology_per_log(self):
        assert (
            ExperimentConfig(log="theta").topology()
            is ExperimentConfig(log="theta", seed=5).topology()
        )


class TestContinuousRuns:
    def test_all_allocators_present(self, small_cfg):
        results = continuous_runs(small_cfg)
        assert set(results) == {"default", "greedy", "balanced", "adaptive"}

    def test_all_jobs_complete_each_run(self, small_cfg):
        for res in continuous_runs(small_cfg).values():
            assert len(res) == 60

    def test_default_run_keeps_logged_runtimes(self, small_cfg):
        jobs = prepare_jobs(small_cfg)
        res = continuous_runs(small_cfg, jobs=jobs)["default"]
        for job in jobs:
            assert res.record_for(job.job_id).execution_time == pytest.approx(job.runtime)

    def test_jobaware_never_slower_in_total(self, small_cfg):
        """Eq. 7 with adaptive choosing min-cost should not increase the
        total execution time beyond default's (statistically, over a log)."""
        results = continuous_runs(small_cfg)
        assert results["adaptive"].total_execution_hours <= (
            results["default"].total_execution_hours * 1.02
        )


class TestWarmState:
    def test_occupancy_reached(self, small_cfg):
        jobs = prepare_jobs(small_cfg)
        topo = small_cfg.topology()
        state, placed = warm_state(topo, jobs, target_occupancy=0.5)
        assert state.total_busy >= int(0.5 * topo.n_nodes)
        assert placed
        state.validate()

    def test_zero_occupancy(self, small_cfg):
        topo = small_cfg.topology()
        state, placed = warm_state(topo, prepare_jobs(small_cfg), target_occupancy=0.0)
        assert placed == []
        assert state.total_free == topo.n_nodes

    def test_invalid_occupancy(self, small_cfg):
        with pytest.raises(ValueError):
            warm_state(small_cfg.topology(), [], target_occupancy=1.0)


class TestEvaluateSingleJob:
    def test_default_costs_equal(self, paper_topology):
        state = ClusterState(paper_topology)
        out = evaluate_single_job(state, make_comm_job(nodes=4), "default")
        assert out.cost_jobaware == pytest.approx(out.cost_default)
        assert out.execution_time == pytest.approx(3600.0)

    def test_compute_job_trivial(self, paper_topology):
        state = ClusterState(paper_topology)
        out = evaluate_single_job(state, make_compute_job(nodes=4), "balanced")
        assert out.cost_jobaware == 0.0
        assert out.execution_time == pytest.approx(3600.0)

    def test_state_not_mutated(self, paper_topology):
        state = ClusterState(paper_topology)
        evaluate_single_job(state, make_comm_job(nodes=4), "adaptive")
        assert state.total_free == 8
        state.validate()

    def test_eq7_applied(self, paper_topology):
        state = ClusterState(paper_topology)
        job = make_comm_job(nodes=8, runtime=100.0, fraction=0.7)
        out = evaluate_single_job(state, job, "balanced")
        ratio = out.cost_jobaware / out.cost_default
        assert out.execution_time == pytest.approx(100.0 * (0.3 + 0.7 * ratio))


class TestIndividualRuns:
    def test_every_allocator_prices_every_sample(self, small_cfg):
        result = individual_runs(small_cfg, n_samples=10)
        assert len(result.outcomes) == 10 * len(small_cfg.allocators)
        for name in small_cfg.allocators:
            assert result.execution_times(name).shape == (10,)

    def test_improvement_non_negative_for_adaptive(self, small_cfg):
        """Adaptive picks min(greedy, balanced); against the same snapshot
        its mean improvement over default is >= balanced's."""
        result = individual_runs(small_cfg, n_samples=30)
        assert result.mean_improvement_pct("adaptive") >= (
            result.mean_improvement_pct("balanced") - 1e-9
        )

    def test_deterministic(self, small_cfg):
        a = individual_runs(small_cfg, n_samples=10)
        b = individual_runs(small_cfg, n_samples=10)
        assert a.sampled_job_ids == b.sampled_job_ids
        assert np.allclose(a.execution_times("greedy"), b.execution_times("greedy"))
