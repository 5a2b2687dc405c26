"""Tests for balanced allocation (paper Algorithm 2, Figure 4, Table 2)."""

import numpy as np
import pytest

from repro.allocation import BalancedAllocator, balanced_split
from repro.cluster import ClusterState, JobKind
from repro.topology import tree_from_leaf_sizes

from ..conftest import gather, make_comm_job, make_compute_job


@pytest.fixture
def alloc():
    return BalancedAllocator()


def leaf_counts(topo, nodes):
    leaves, counts = np.unique(topo.leaf_of_node[np.asarray(nodes)], return_counts=True)
    return dict(zip(leaves.tolist(), counts.tolist()))


class TestBalancedSplit:
    def test_paper_table2(self):
        """The exact Table 2 example: 512 nodes over 160/150/100/80/70/50/40."""
        free = np.array([160, 150, 100, 80, 70, 50, 40])
        assert balanced_split(free, 512).tolist() == [128, 128, 64, 64, 64, 32, 32]

    def test_single_leaf_fits(self):
        assert balanced_split(np.array([16]), 8).tolist() == [8]

    def test_chunk_never_regrows(self):
        """Figure 4: once S halves, it stays halved for later leaves."""
        free = np.array([16, 3, 16])
        taken = balanced_split(free, 20)
        # S=16 on leaf 0; halves to 2 for leaf 1; stays <= 2 for leaf 2 in
        # the power-of-two sweep, remainder pass fills the rest in reverse
        assert taken[0] == 16
        assert taken.sum() == 20

    def test_remainder_pass_reverse_order(self):
        free = np.array([8, 8])
        taken = balanced_split(free, 12)
        # sweep: 8 on leaf 0, S stays 8 > free -> 8? free[1]=8 so 4 more,
        # min(S=8, R=4) = 4 on leaf 1
        assert taken.tolist() == [8, 4]

    def test_exact_fill(self):
        free = np.array([4, 4, 4])
        assert balanced_split(free, 12).sum() == 12

    def test_non_power_of_two_request(self):
        free = np.array([16, 16])
        taken = balanced_split(free, 11)  # S starts at 8
        assert taken.sum() == 11
        assert taken[0] >= 8

    def test_insufficient_free_rejected(self):
        with pytest.raises(ValueError, match="<"):
            balanced_split(np.array([2, 2]), 8)

    def test_zero_request_rejected(self):
        with pytest.raises(ValueError):
            balanced_split(np.array([4]), 0)

    def test_skips_empty_leaves(self):
        free = np.array([0, 8, 0, 8])
        taken = balanced_split(free, 16)
        assert taken.tolist() == [0, 8, 0, 8]


class TestCommIntensive:
    def test_powers_of_two_per_leaf(self, alloc):
        topo = tree_from_leaf_sizes([10, 6, 7])
        state = ClusterState(topo)
        nodes = gather(state, alloc.allocate(state, make_comm_job(nodes=16)))
        counts = leaf_counts(topo, nodes)
        # descending free: leaf0(10) -> 8, leaf2(7) -> 4, leaf1(6) -> 4
        assert counts == {0: 8, 2: 4, 1: 4}
        assert all((c & (c - 1)) == 0 for c in counts.values())

    def test_descending_free_order(self, alloc):
        topo = tree_from_leaf_sizes([4, 16, 8])
        state = ClusterState(topo)
        nodes = gather(state, alloc.allocate(state, make_comm_job(nodes=24)))
        # rank blocks: leaf1 (16) first, then leaf2 (8)
        assert topo.leaf_of_node[nodes[:16]].tolist() == [1] * 16
        assert topo.leaf_of_node[nodes[16:]].tolist() == [2] * 8

    def test_remainder_uses_leftover_free(self, alloc):
        topo = tree_from_leaf_sizes([6, 6])
        state = ClusterState(topo)
        nodes = gather(state, alloc.allocate(state, make_comm_job(nodes=11)))
        counts = leaf_counts(topo, nodes)
        assert sum(counts.values()) == 11

    def test_single_leaf_fit_short_circuits(self, alloc):
        topo = tree_from_leaf_sizes([8, 16])
        state = ClusterState(topo)
        nodes = gather(state, alloc.allocate(state, make_comm_job(nodes=7)))
        assert leaf_counts(topo, nodes) == {0: 7}


class TestComputeIntensive:
    def test_packs_fullest_first_no_pow2(self, alloc):
        """Lines 29-36: ascending free order, every free node taken."""
        topo = tree_from_leaf_sizes([8, 8, 8])
        state = ClusterState(topo)
        state.allocate(1, [0, 1, 2], JobKind.COMPUTE)   # leaf 0: 5 free
        state.allocate(2, [8], JobKind.COMPUTE)          # leaf 1: 7 free
        takes = alloc.allocate(state, make_compute_job(job_id=3, nodes=10))
        nodes = gather(state, takes)
        counts = leaf_counts(topo, nodes)
        assert counts == {0: 5, 1: 5}  # fullest leaf exhausted first

    def test_preserves_empty_leaf_for_comm_jobs(self, alloc):
        topo = tree_from_leaf_sizes([8, 8])
        state = ClusterState(topo)
        state.allocate(1, [0], JobKind.COMPUTE)
        takes = alloc.allocate(state, make_compute_job(job_id=2, nodes=7))
        nodes = gather(state, takes)
        assert leaf_counts(topo, nodes) == {0: 7}  # leaf 1 untouched
