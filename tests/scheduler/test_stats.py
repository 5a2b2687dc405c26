"""Tests for SchedulerStats bookkeeping."""


from repro.scheduler import EngineConfig, SchedulerEngine
from repro.topology import tree_from_leaf_sizes, two_level_tree

from ..conftest import make_comm_job, make_compute_job


class TestSchedulerStats:
    def test_counterfactuals_counted_per_comm_start(self):
        topo = two_level_tree(2, 4)
        engine = SchedulerEngine(topo, "balanced")
        jobs = [
            make_comm_job(job_id=1, nodes=8, runtime=10.0),
            make_compute_job(job_id=2, nodes=4, runtime=10.0, submit_time=20.0),
        ]
        engine.run(jobs)
        assert engine.last_stats.counterfactual_evaluations == 1

    def test_default_allocator_never_counterfactuals(self):
        topo = two_level_tree(2, 4)
        engine = SchedulerEngine(topo, "default")
        engine.run([make_comm_job(job_id=1, nodes=8, runtime=10.0)])
        assert engine.last_stats.counterfactual_evaluations == 0

    def test_backfills_counted(self):
        topo = tree_from_leaf_sizes([4, 4])
        engine = SchedulerEngine(topo, "default", EngineConfig(policy="backfill"))
        jobs = [
            make_compute_job(job_id=1, nodes=6, runtime=100.0),
            make_compute_job(job_id=2, nodes=4, runtime=100.0, submit_time=1.0),
            make_compute_job(job_id=3, nodes=2, runtime=10.0, submit_time=2.0),
        ]
        engine.run(jobs)
        assert engine.last_stats.jobs_backfilled == 1

    def test_fifo_never_backfills(self):
        topo = tree_from_leaf_sizes([4, 4])
        engine = SchedulerEngine(topo, "default", EngineConfig(policy="fifo"))
        jobs = [
            make_compute_job(job_id=1, nodes=6, runtime=100.0),
            make_compute_job(job_id=2, nodes=4, runtime=100.0, submit_time=1.0),
            make_compute_job(job_id=3, nodes=2, runtime=10.0, submit_time=2.0),
        ]
        engine.run(jobs)
        assert engine.last_stats.jobs_backfilled == 0

    def test_stats_reset_between_runs(self):
        topo = two_level_tree(2, 4)
        engine = SchedulerEngine(topo, "balanced")
        jobs = [make_comm_job(job_id=1, nodes=8, runtime=10.0)]
        engine.run(jobs)
        first = engine.last_stats.counterfactual_evaluations
        engine.run(jobs)
        assert engine.last_stats.counterfactual_evaluations == first

    def test_passes_positive(self):
        topo = two_level_tree(2, 4)
        engine = SchedulerEngine(topo, "default")
        engine.run([make_compute_job(job_id=1, nodes=2, runtime=5.0)])
        assert engine.last_stats.schedule_passes >= 1
