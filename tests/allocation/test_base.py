"""Tests for allocator plumbing: switch search, takes, node gathering, checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import (
    AllocationError,
    find_lowest_level_switch,
    leaves_below,
)
from repro.allocation import DefaultSlurmAllocator
from repro.allocation.base import fill_in_order, fill_takes, ordered_takes
from repro.cluster import ClusterState, JobKind, Takes
from repro.topology import tree_from_leaf_sizes, two_level_tree

from ..conftest import make_comm_job


class TestFindLowestLevelSwitch:
    def test_paper_example(self):
        """§3.1: with n0, n1 busy on the Figure 2 tree, a 4-node job's
        lowest switch is s1 (a leaf) and a 6-node job's is s2 (the root)."""
        topo = two_level_tree(2, 4)
        state = ClusterState(topo)
        state.allocate(1, [0, 1], JobKind.COMPUTE)
        four = find_lowest_level_switch(state, 4)
        assert four.name == "s1" and four.is_leaf
        six = find_lowest_level_switch(state, 6)
        assert six.name == "s2" and six.level == 2

    def test_best_fit_among_leaves(self):
        topo = tree_from_leaf_sizes([8, 4, 6])
        state = ClusterState(topo)
        # request 3: all leaves qualify; best fit = leaf with 4 free
        assert find_lowest_level_switch(state, 3).name == "s1"

    def test_none_when_infeasible(self):
        topo = two_level_tree(2, 4)
        state = ClusterState(topo)
        assert find_lowest_level_switch(state, 9) is None

    def test_midlevel_switch_in_three_level_tree(self, three_level):
        state = ClusterState(three_level)
        # 5 nodes: no 4-node leaf can hold it; a pod (12 nodes) can
        switch = find_lowest_level_switch(state, 5)
        assert switch.level == 2

    def test_invalid_request(self, three_level):
        state = ClusterState(three_level)
        with pytest.raises(ValueError):
            find_lowest_level_switch(state, 0)

    def test_accounts_for_busy_nodes(self):
        topo = two_level_tree(2, 4)
        state = ClusterState(topo)
        state.allocate(1, [4, 5, 6], JobKind.COMPUTE)  # leaf 1 has 1 free
        assert find_lowest_level_switch(state, 4).name == "s0"


class TestLeavesBelow:
    def test_excludes_full_leaves(self):
        topo = tree_from_leaf_sizes([2, 2, 2])
        state = ClusterState(topo)
        state.allocate(1, [0, 1], JobKind.COMPUTE)  # leaf 0 full
        assert leaves_below(state, topo.root).tolist() == [1, 2]


class TestGatherNodes:
    def test_order_preserved(self):
        topo = tree_from_leaf_sizes([3, 3])
        state = ClusterState(topo)
        nodes = state.allocate(1, Takes([1, 0], [2, 1]), JobKind.COMM)
        assert nodes.tolist() == [3, 4, 0]
        # the record keeps its ids ascending, beside the takes they form
        record = state.running[1]
        assert record.nodes.tolist() == [0, 3, 4]
        assert record.takes == Takes([1, 0], [2, 1])
        state.validate()

    def test_zero_counts_skipped(self):
        takes = fill_takes(np.array([2, 0, 1]), np.array([0, 3, 0]))
        assert takes == Takes([0], [3])

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=60), st.data())
    @settings(max_examples=200, deadline=None)
    def test_fill_in_order_matches_the_fill_loop(self, free, data):
        n_nodes = data.draw(st.integers(1, sum(free)))
        leaves = np.asarray(data.draw(st.permutations(range(len(free)))), dtype=np.int64)
        free = np.asarray(free, dtype=np.int64)
        want = fill_takes(leaves, ordered_takes(free, n_nodes))
        assert fill_in_order(leaves, free, n_nodes) == want
        assert want.n_nodes == n_nodes


class TestAllocatorChecks:
    def test_too_large_for_cluster(self):
        topo = two_level_tree(2, 4)
        state = ClusterState(topo)
        with pytest.raises(AllocationError, match="cluster has"):
            DefaultSlurmAllocator().allocate(state, make_comm_job(nodes=100))

    def test_not_enough_free(self):
        topo = two_level_tree(2, 4)
        state = ClusterState(topo)
        state.allocate(1, list(range(6)), JobKind.COMPUTE)
        with pytest.raises(AllocationError, match="free"):
            DefaultSlurmAllocator().allocate(state, make_comm_job(job_id=2, nodes=4))

    def test_allocate_does_not_mutate_state(self):
        topo = two_level_tree(2, 4)
        state = ClusterState(topo)
        DefaultSlurmAllocator().allocate(state, make_comm_job(nodes=4))
        assert state.total_free == 8
        state.validate()
