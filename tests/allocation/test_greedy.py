"""Tests for greedy allocation (paper Algorithm 1)."""

import numpy as np
import pytest

from repro.allocation import GreedyAllocator
from repro.cluster import ClusterState, JobKind
from repro.topology import tree_from_leaf_sizes

from ..conftest import gather, make_comm_job, make_compute_job


@pytest.fixture
def alloc():
    return GreedyAllocator()


def leaf_counts(topo, nodes):
    leaves, counts = np.unique(topo.leaf_of_node[np.asarray(nodes)], return_counts=True)
    return dict(zip(leaves.tolist(), counts.tolist()))


@pytest.fixture
def contended_state():
    """Three 8-node leaves: leaf 0 comm-heavy, leaf 1 compute-busy, leaf 2 idle."""
    topo = tree_from_leaf_sizes([8, 8, 8])
    state = ClusterState(topo)
    state.allocate(1, [0, 1, 2, 3], JobKind.COMM)      # leaf 0: ratio 1 + 0.5
    state.allocate(2, [8, 9, 10, 11], JobKind.COMPUTE)  # leaf 1: ratio 0 + 0.5
    return state


class TestCommIntensive:
    def test_leaf_fit_short_circuits_before_contention(self, contended_state, alloc):
        """Lines 2-5 of Algorithm 1 run before any contention sorting: a
        request that best-fits on the comm-heavy leaf is placed there."""
        topo = contended_state.topology
        takes = alloc.allocate(contended_state, make_comm_job(job_id=3, nodes=4))
        nodes = gather(contended_state, takes)
        assert leaf_counts(topo, nodes) == {0: 4}

    def test_prefers_least_contended(self, contended_state, alloc):
        """A request spanning leaves fills the idle leaf (ratio 0) first."""
        topo = contended_state.topology
        takes = alloc.allocate(contended_state, make_comm_job(job_id=3, nodes=9))
        nodes = gather(contended_state, takes)
        assert leaf_counts(topo, nodes) == {2: 8, 1: 1}

    def test_order_idle_then_compute_then_comm(self, contended_state, alloc):
        topo = contended_state.topology
        takes = alloc.allocate(contended_state, make_comm_job(job_id=3, nodes=14))
        nodes = gather(contended_state, takes)
        counts = leaf_counts(topo, nodes)
        # idle leaf exhausted (8), compute leaf next (4 free), comm leaf last (2)
        assert counts == {2: 8, 1: 4, 0: 2}

    def test_rank_order_follows_sorted_leaves(self, contended_state, alloc):
        topo = contended_state.topology
        takes = alloc.allocate(contended_state, make_comm_job(job_id=3, nodes=10))
        nodes = gather(contended_state, takes)
        # first 8 ranks on idle leaf 2, then leaf 1
        assert topo.leaf_of_node[nodes[:8]].tolist() == [2] * 8
        assert topo.leaf_of_node[nodes[8:]].tolist() == [1] * 2


class TestComputeIntensive:
    def test_prefers_most_contended(self, contended_state, alloc):
        """Compute job takes the comm-heavy leaf first, preserving quiet
        leaves for future communication-intensive jobs (lines 9-10)."""
        topo = contended_state.topology
        takes = alloc.allocate(contended_state, make_compute_job(job_id=3, nodes=4))
        nodes = gather(contended_state, takes)
        assert leaf_counts(topo, nodes) == {0: 4}

    def test_reverse_order_of_comm_job(self, contended_state, alloc):
        topo = contended_state.topology
        takes = alloc.allocate(contended_state, make_compute_job(job_id=3, nodes=14))
        nodes = gather(contended_state, takes)
        counts = leaf_counts(topo, nodes)
        assert counts == {0: 4, 1: 4, 2: 6}


class TestEq1Ordering:
    def test_ratio_combines_contention_and_occupancy(self, alloc):
        """A full-but-compute leaf (ratio ~1) loses to an idle leaf (0) but
        beats a comm-saturated leaf (ratio ~1.5+)."""
        topo = tree_from_leaf_sizes([4, 4, 4])
        state = ClusterState(topo)
        state.allocate(1, [0, 1], JobKind.COMM)     # leaf 0: 1 + 0.5 = 1.5
        state.allocate(2, [4, 5], JobKind.COMPUTE)  # leaf 1: 0 + 0.5 = 0.5
        nodes = gather(state, alloc.allocate(state, make_comm_job(job_id=3, nodes=6)))
        counts = leaf_counts(topo, nodes)
        assert counts == {2: 4, 1: 2}  # idle leaf, then compute leaf; comm leaf avoided

    def test_single_leaf_fit_short_circuits(self, alloc):
        """Lines 3-5: if the lowest-level switch is a leaf, take it directly."""
        topo = tree_from_leaf_sizes([8, 8])
        state = ClusterState(topo)
        state.allocate(1, [0], JobKind.COMM)
        nodes = gather(state, alloc.allocate(state, make_comm_job(job_id=2, nodes=7)))
        assert leaf_counts(topo, nodes) == {0: 7}
