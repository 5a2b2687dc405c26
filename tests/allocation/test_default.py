"""Tests for the default SLURM topology/tree allocation (§3.1)."""

import numpy as np
import pytest

from repro.allocation import DefaultSlurmAllocator
from repro.cluster import ClusterState, JobKind
from repro.topology import tree_from_leaf_sizes, two_level_tree

from ..conftest import gather, make_comm_job, make_compute_job


@pytest.fixture
def alloc():
    return DefaultSlurmAllocator()


def leaf_counts(topo, nodes):
    leaves, counts = np.unique(topo.leaf_of_node[np.asarray(nodes)], return_counts=True)
    return dict(zip(leaves.tolist(), counts.tolist()))


class TestLeafRequests:
    def test_fits_single_leaf(self, alloc):
        topo = two_level_tree(2, 4)
        state = ClusterState(topo)
        nodes = gather(state, alloc.allocate(state, make_comm_job(nodes=4)))
        assert len(set(topo.leaf_of_node[nodes].tolist())) == 1

    def test_prefers_best_fit_leaf(self, alloc):
        topo = tree_from_leaf_sizes([8, 4])
        state = ClusterState(topo)
        nodes = gather(state, alloc.allocate(state, make_comm_job(nodes=4)))
        # the 4-free leaf is the tighter fit
        assert leaf_counts(topo, nodes) == {1: 4}


class TestMultiLeafRequests:
    def test_best_fit_fills_smallest_first(self, alloc):
        """§3.1: 'first allocates nodes on those leaf switches that have
        minimum number of nodes available'."""
        topo = tree_from_leaf_sizes([10, 6, 8])
        state = ClusterState(topo)
        nodes = gather(state, alloc.allocate(state, make_comm_job(nodes=15)))
        counts = leaf_counts(topo, nodes)
        assert counts[1] == 6       # smallest free first, exhausted
        assert counts[2] == 8       # next smallest, exhausted
        assert counts[0] == 1       # remainder from the largest

    def test_ignores_job_kind(self, alloc):
        topo = tree_from_leaf_sizes([10, 6, 8])
        state = ClusterState(topo)
        comm = gather(state, alloc.allocate(state, make_comm_job(nodes=15)))
        comp = gather(state, alloc.allocate(state, make_compute_job(nodes=15)))
        assert comm.tolist() == comp.tolist()

    def test_exact_request_size(self, alloc):
        topo = tree_from_leaf_sizes([5, 5, 5])
        state = ClusterState(topo)
        for n in (1, 5, 6, 15):
            nodes = gather(state, alloc.allocate(state, make_comm_job(nodes=n)))
            assert len(nodes) == n
            assert len(set(nodes.tolist())) == n

    def test_skips_full_leaves(self, alloc):
        topo = tree_from_leaf_sizes([4, 4, 4])
        state = ClusterState(topo)
        state.allocate(1, [4, 5, 6, 7], JobKind.COMPUTE)  # leaf 1 full
        nodes = gather(state, alloc.allocate(state, make_comm_job(job_id=2, nodes=8)))
        assert 1 not in leaf_counts(topo, nodes)

    def test_deterministic(self, alloc):
        topo = tree_from_leaf_sizes([6, 6, 6])
        state = ClusterState(topo)
        a = gather(state, alloc.allocate(state, make_comm_job(nodes=10)))
        b = gather(state, alloc.allocate(state, make_comm_job(nodes=10)))
        assert a.tolist() == b.tolist()
