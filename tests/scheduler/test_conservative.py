"""Tests for conservative backfilling (extension policy)."""

import numpy as np

from repro.scheduler import EngineConfig, get_policy, simulate
from repro.scheduler.conservative import ConservativeBackfillPolicy, _AvailabilityProfile
from repro.scheduler.queue_policy import RunningJobView
from repro.topology import tree_from_leaf_sizes, two_level_tree

from ..conftest import make_compute_job


class TestAvailabilityProfile:
    def test_initial_free(self):
        p = _AvailabilityProfile(0.0, 4, [])
        assert p.earliest_fit(4, 10.0) == 0.0
        assert p.earliest_fit(5, 10.0) == float("inf")

    def test_release_raises_availability(self):
        p = _AvailabilityProfile(0.0, 2, [RunningJobView(50.0, 6)])
        assert p.earliest_fit(2, 10.0) == 0.0
        assert p.earliest_fit(8, 10.0) == 50.0

    def test_reserve_blocks_interval(self):
        p = _AvailabilityProfile(0.0, 4, [])
        p.reserve(0.0, 10.0, 4)
        assert p.earliest_fit(4, 5.0) == 10.0
        assert p.earliest_fit(1, 5.0) == 10.0

    def test_reserve_future_interval(self):
        p = _AvailabilityProfile(0.0, 4, [])
        p.reserve(20.0, 10.0, 3)
        assert p.earliest_fit(4, 5.0) == 0.0  # fits before the hold
        # a long job spanning the hold cannot use >1 node over it
        assert p.earliest_fit(2, 40.0) == 30.0

    def test_past_release_counts_immediately(self):
        p = _AvailabilityProfile(100.0, 1, [RunningJobView(50.0, 3)])
        # finish estimate in the past clamps to now
        assert p.earliest_fit(4, 1.0) == 100.0


class TestPolicy:
    def policy(self):
        return ConservativeBackfillPolicy()

    def test_head_starts_when_fit(self):
        picks = self.policy().select_startable(
            0.0, [make_compute_job(job_id=0, nodes=4)], 8, []
        )
        assert picks == [0]

    def test_backfill_that_delays_second_job_rejected(self):
        """EASY admits a job that delays the *second* queued job;
        conservative must not."""
        queue = [
            make_compute_job(job_id=0, nodes=10, runtime=100.0),  # head: starts @50
            make_compute_job(job_id=1, nodes=4, runtime=100.0),   # reserved @150
            # candidate: fits now, ends at 300 — would push job 1 past 150
            make_compute_job(job_id=2, nodes=4, runtime=300.0),
        ]
        running = [RunningJobView(finish_estimate=50.0, nodes=8)]
        picks = self.policy().select_startable(0.0, queue, 4, running)
        assert 2 not in picks

    def test_harmless_backfill_admitted(self):
        queue = [
            make_compute_job(job_id=0, nodes=10, runtime=100.0),
            make_compute_job(job_id=1, nodes=2, runtime=40.0),  # ends before 50
        ]
        running = [RunningJobView(finish_estimate=50.0, nodes=8)]
        picks = self.policy().select_startable(0.0, queue, 4, running)
        assert picks == [1]

    def test_never_fitting_job_skipped(self):
        # 10 nodes free forever, job wants 20 (permanent background load)
        queue = [make_compute_job(job_id=0, nodes=20, runtime=10.0),
                 make_compute_job(job_id=1, nodes=5, runtime=10.0)]
        picks = self.policy().select_startable(0.0, queue, 10, [])
        assert picks == [1]

    def test_registered(self):
        assert get_policy("conservative").name == "conservative"


class TestEngineIntegration:
    def test_full_simulation_completes(self):
        topo = two_level_tree(2, 4)
        rng = np.random.default_rng(3)
        jobs = [
            make_compute_job(job_id=i, nodes=int(rng.choice([2, 4, 8])),
                             runtime=float(rng.integers(10, 200)),
                             submit_time=float(rng.integers(0, 400)))
            for i in range(1, 30)
        ]
        res = simulate(topo, jobs, "default", config=EngineConfig(policy="conservative"))
        assert len(res) == 29
        assert (res.wait_times >= 0).all()

    def test_no_job_misses_its_easy_guarantee(self):
        """Conservative waits are never worse than pure FIFO waits."""
        topo = tree_from_leaf_sizes([4, 4])
        rng = np.random.default_rng(4)
        jobs = [
            make_compute_job(job_id=i, nodes=int(rng.choice([1, 2, 4, 8])),
                             runtime=float(rng.integers(10, 100)),
                             submit_time=float(i * 20))
            for i in range(1, 25)
        ]
        fifo = simulate(topo, jobs, "default", config=EngineConfig(policy="fifo"))
        cons = simulate(topo, jobs, "default", config=EngineConfig(policy="conservative"))
        assert cons.total_wait_hours <= fifo.total_wait_hours + 1e-9
