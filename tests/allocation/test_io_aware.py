"""Tests for the I/O-aware allocator (§7 extension) and IO job kind."""

import numpy as np
import pytest

from repro.allocation import IOAwareAllocator, get_allocator
from repro.cluster import ClusterState, Job, JobKind
from repro.scheduler import simulate
from repro.topology import tree_from_leaf_sizes, two_level_tree

from ..conftest import gather, make_comm_job, make_compute_job


def io_job(job_id=1, nodes=4, runtime=3600.0, submit_time=0.0):
    return Job(job_id, submit_time, nodes, runtime, JobKind.IO)


def leaf_counts(topo, nodes):
    leaves, counts = np.unique(topo.leaf_of_node[np.asarray(nodes)], return_counts=True)
    return dict(zip(leaves.tolist(), counts.tolist()))


@pytest.fixture
def mixed_state():
    """Leaf 0 I/O-heavy, leaf 1 comm-heavy, leaf 2 idle (8 nodes each)."""
    topo = tree_from_leaf_sizes([8, 8, 8])
    state = ClusterState(topo)
    state.allocate(1, [0, 1, 2, 3], JobKind.IO)
    state.allocate(2, [8, 9, 10, 11], JobKind.COMM)
    return state


class TestIOTracking:
    def test_leaf_io_counted(self, mixed_state):
        assert mixed_state.leaf_io.tolist() == [4, 0, 0]
        assert mixed_state.leaf_comm.tolist() == [0, 4, 0]
        mixed_state.validate()

    def test_release_restores_io(self, mixed_state):
        mixed_state.release(1)
        assert mixed_state.leaf_io.tolist() == [0, 0, 0]
        mixed_state.validate()

    def test_io_ratio_eq1_analogue(self, mixed_state):
        ratios = mixed_state.io_ratio()
        assert ratios[0] == pytest.approx(4 / 4 + 4 / 8)
        assert ratios[1] == pytest.approx(0 / 4 + 4 / 8)
        assert ratios[2] == 0.0

    def test_copy_preserves_io(self, mixed_state):
        clone = mixed_state.copy()
        clone.allocate(3, [16], JobKind.IO)
        assert mixed_state.leaf_io.tolist() == [4, 0, 0]  # original untouched
        assert clone.leaf_io.tolist() == [4, 0, 1]

    def test_io_job_carries_no_patterns(self):
        with pytest.raises(ValueError, match="must not carry"):
            from repro.cluster import CommComponent
            from repro.patterns import RecursiveDoubling

            Job(1, 0.0, 4, 10.0, JobKind.IO,
                (CommComponent(RecursiveDoubling(), 0.5),))


class TestIOAwareAllocator:
    def test_io_job_avoids_io_heavy_leaf(self, mixed_state):
        """An I/O job spanning leaves takes the idle leaf, then the
        comm leaf, touching the I/O-heavy leaf last."""
        topo = mixed_state.topology
        takes = IOAwareAllocator().allocate(mixed_state, io_job(job_id=3, nodes=10))
        nodes = gather(mixed_state, takes)
        counts = leaf_counts(topo, nodes)
        assert counts[2] == 8      # idle leaf exhausted first
        assert counts.get(1, 0) == 2  # comm leaf next (io weight dominates)
        assert 0 not in counts

    def test_comm_job_avoids_comm_heavy_leaf(self, mixed_state):
        topo = mixed_state.topology
        takes = IOAwareAllocator().allocate(
            mixed_state, make_comm_job(job_id=3, nodes=10)
        )
        nodes = gather(mixed_state, takes)
        counts = leaf_counts(topo, nodes)
        assert counts[2] == 8
        assert counts.get(0, 0) == 2  # io leaf preferred over comm leaf
        assert 1 not in counts

    def test_compute_job_takes_noisy_leaves_first(self, mixed_state):
        topo = mixed_state.topology
        takes = IOAwareAllocator().allocate(
            mixed_state, make_compute_job(job_id=3, nodes=4)
        )
        nodes = gather(mixed_state, takes)
        counts = leaf_counts(topo, nodes)
        assert 2 not in counts  # idle leaf preserved

    def test_cross_weight_zero_ignores_other_type(self):
        """With cross_weight=0 a comm job is indifferent between an
        I/O-heavy and an idle leaf of equal occupancy."""
        topo = tree_from_leaf_sizes([8, 8])
        state = ClusterState(topo)
        state.allocate(1, [0, 1, 2, 3], JobKind.IO)
        state.allocate(2, [8, 9, 10, 11], JobKind.COMPUTE)
        alloc = IOAwareAllocator(cross_weight=0.0)
        nodes = gather(state, alloc.allocate(state, make_comm_job(job_id=3, nodes=6)))
        counts = leaf_counts(topo, nodes)
        # equal scores -> deterministic tie-break by leaf index
        assert counts == {0: 4, 1: 2}

    def test_invalid_cross_weight(self):
        with pytest.raises(ValueError):
            IOAwareAllocator(cross_weight=1.5)

    def test_registered(self):
        assert get_allocator("io-aware").name == "io-aware"


class TestEngineWithIOJobs:
    def test_io_jobs_schedule_and_complete(self):
        topo = two_level_tree(2, 4)
        jobs = [
            io_job(1, nodes=4, runtime=50.0),
            make_comm_job(job_id=2, nodes=4, runtime=50.0),
            make_compute_job(job_id=3, nodes=8, runtime=20.0, submit_time=10.0),
        ]
        res = simulate(topo, jobs, "io-aware")
        assert len(res) == 3
        # IO jobs keep their logged runtime (no Eq. 7 rescale)
        assert res.record_for(1).execution_time == pytest.approx(50.0)
