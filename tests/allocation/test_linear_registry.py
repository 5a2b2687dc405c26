"""Tests for the linear baseline and the allocator registry."""

import pytest

from repro.allocation import (
    ALLOCATOR_FACTORIES,
    LinearAllocator,
    PAPER_ALLOCATORS,
    allocator_names,
    get_allocator,
)
from repro.cluster import ClusterState, JobKind
from repro.topology import two_level_tree

from ..conftest import gather, make_comm_job


class TestLinear:
    def test_lowest_ids_first(self):
        topo = two_level_tree(2, 4)
        state = ClusterState(topo)
        state.allocate(1, [0, 2], JobKind.COMPUTE)
        takes = LinearAllocator().allocate(state, make_comm_job(job_id=2, nodes=3))
        nodes = gather(state, takes)
        assert nodes.tolist() == [1, 3, 4]

    def test_ignores_topology(self):
        """Linear happily splits a job across switches even when one leaf
        could hold it — that's the point of the ablation."""
        topo = two_level_tree(2, 4)
        state = ClusterState(topo)
        state.allocate(1, [0, 1], JobKind.COMPUTE)
        takes = LinearAllocator().allocate(state, make_comm_job(job_id=2, nodes=4))
        nodes = gather(state, takes)
        leaves = set(topo.leaf_of_node[nodes].tolist())
        assert leaves == {0, 1}


class TestRegistry:
    def test_paper_allocators_in_order(self):
        assert PAPER_ALLOCATORS == ("default", "greedy", "balanced", "adaptive")

    def test_all_names_instantiate(self):
        for name in allocator_names():
            assert get_allocator(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown allocator"):
            get_allocator("quantum")

    def test_registry_contains_linear_ablation(self):
        assert "linear" in ALLOCATOR_FACTORIES

    def test_fresh_instances(self):
        assert get_allocator("greedy") is not get_allocator("greedy")
