"""Edge-case tests for the discrete-event engine."""

import pytest

from repro.cluster import ClusterState, JobKind
from repro.scheduler import simulate
from repro.topology import tree_from_leaf_sizes, two_level_tree

from ..conftest import make_comm_job, make_compute_job


class TestSimultaneousEvents:
    def test_finish_and_submit_same_instant(self):
        """A job finishing exactly when another is submitted must free
        its nodes before the new job is considered."""
        topo = two_level_tree(2, 4)
        jobs = [
            make_compute_job(job_id=1, nodes=8, runtime=100.0, submit_time=0.0),
            make_compute_job(job_id=2, nodes=8, runtime=10.0, submit_time=100.0),
        ]
        res = simulate(topo, jobs, "default")
        assert res.record_for(2).start_time == pytest.approx(100.0)
        assert res.record_for(2).wait_time == pytest.approx(0.0)

    def test_many_simultaneous_submissions_deterministic(self):
        topo = tree_from_leaf_sizes([4, 4, 4])
        jobs = [
            make_compute_job(job_id=i, nodes=3, runtime=10.0, submit_time=0.0)
            for i in range(1, 9)
        ]
        a = simulate(topo, jobs, "default")
        b = simulate(topo, jobs, "default")
        for ra, rb in zip(a.records, b.records):
            assert ra.start_time == rb.start_time
            assert ra.nodes.tolist() == rb.nodes.tolist()
        # four fit immediately (12 nodes / 3 each)
        immediate = [r for r in a.records if r.start_time == 0.0]
        assert len(immediate) == 4


class TestZeroRuntime:
    def test_zero_runtime_job_completes_instantly(self):
        topo = two_level_tree(2, 4)
        res = simulate(topo, [make_compute_job(job_id=1, nodes=2, runtime=0.0)], "default")
        r = res.record_for(1)
        assert r.execution_time == 0.0
        assert r.finish_time == r.start_time

    def test_zero_runtime_does_not_wedge_followers(self):
        topo = two_level_tree(2, 4)
        jobs = [
            make_compute_job(job_id=1, nodes=8, runtime=0.0, submit_time=0.0),
            make_compute_job(job_id=2, nodes=8, runtime=5.0, submit_time=0.0),
        ]
        res = simulate(topo, jobs, "default")
        assert len(res) == 2
        assert res.record_for(2).start_time == pytest.approx(0.0)


class TestCommMixThroughEngine:
    def test_mixed_pattern_job_costs_recorded_per_pattern(self):
        from repro.cluster import CommComponent, Job
        from repro.patterns import BinomialTree, RecursiveDoubling

        topo = two_level_tree(2, 4)
        job = Job(1, 0.0, 8, 100.0, JobKind.COMM,
                  (CommComponent(RecursiveDoubling(), 0.15),
                   CommComponent(BinomialTree(), 0.35)))
        res = simulate(topo, [job], "balanced")
        record = res.record_for(1)
        assert set(record.cost_jobaware) == {"rd", "binomial"}
        assert set(record.cost_default) == {"rd", "binomial"}


class TestInitialStateInteraction:
    def test_background_comm_load_biases_allocation(self):
        """With a comm tenant on leaf 0, the greedy allocator places the
        new comm job away from it even through the engine path."""
        topo = tree_from_leaf_sizes([8, 8, 8])
        state = ClusterState(topo)
        state.allocate(99, list(range(0, 6)), JobKind.COMM)
        job = make_comm_job(job_id=1, nodes=10)
        res = simulate(topo, [job], "greedy", initial_state=state)
        leaves = set(topo.leaf_of_node[res.record_for(1).nodes].tolist())
        assert 0 not in leaves

    def test_initial_state_with_io_jobs(self):
        topo = tree_from_leaf_sizes([8, 8])
        state = ClusterState(topo)
        state.allocate(99, [0, 1], JobKind.IO)
        res = simulate(topo, [make_compute_job(job_id=1, nodes=4)], "io-aware",
                       initial_state=state)
        assert len(res) == 1
