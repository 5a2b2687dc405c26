"""Tests for SLURM task distribution layouts."""

import numpy as np
import pytest

from repro.cluster import ClusterState, JobKind
from repro.cost import CostModel
from repro.distribution import (
    block_distribution,
    cyclic_distribution,
    plane_distribution,
)
from repro.patterns import RecursiveHalvingVectorDoubling
from repro.topology import two_level_tree

NODES = np.array([10, 20, 30])


class TestBlock:
    def test_one_task_per_node_identity(self):
        assert block_distribution(NODES).tolist() == [10, 20, 30]

    def test_consecutive_ranks_share_node(self):
        layout = block_distribution(NODES, tasks_per_node=2)
        assert layout.tolist() == [10, 10, 20, 20, 30, 30]

    def test_invalid_tasks(self):
        with pytest.raises(ValueError):
            block_distribution(NODES, tasks_per_node=0)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            block_distribution([1, 1])


class TestCyclic:
    def test_round_robin(self):
        layout = cyclic_distribution(NODES, tasks_per_node=2)
        assert layout.tolist() == [10, 20, 30, 10, 20, 30]

    def test_one_task_equals_block(self):
        assert cyclic_distribution(NODES).tolist() == block_distribution(NODES).tolist()


class TestPlane:
    def test_plane_interpolates(self):
        layout = plane_distribution(NODES, plane_size=2, tasks_per_node=4)
        assert layout.tolist() == [10, 10, 20, 20, 30, 30, 10, 10, 20, 20, 30, 30]

    def test_plane_equals_block_at_tasks_per_node(self):
        a = plane_distribution(NODES, plane_size=3, tasks_per_node=3)
        b = block_distribution(NODES, tasks_per_node=3)
        assert a.tolist() == b.tolist()

    def test_plane_one_equals_cyclic(self):
        a = plane_distribution(NODES, plane_size=1, tasks_per_node=2)
        b = cyclic_distribution(NODES, tasks_per_node=2)
        assert a.tolist() == b.tolist()

    def test_non_multiple_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            plane_distribution(NODES, plane_size=2, tasks_per_node=3)


class TestLayoutInvariants:
    @pytest.mark.parametrize("tasks", [1, 2, 4])
    def test_every_node_gets_exactly_tasks(self, tasks):
        for layout in (
            block_distribution(NODES, tasks),
            cyclic_distribution(NODES, tasks),
            plane_distribution(NODES, 1, tasks),
        ):
            uniq, counts = np.unique(layout, return_counts=True)
            assert uniq.tolist() == sorted(NODES.tolist())
            assert (counts == tasks).all()


class TestCostIntegration:
    def test_block_cheaper_than_cyclic_for_rhvd(self):
        """Under block, RHVD's heavy late steps (small partner distance,
        big msize) become intra-node — the classic reason `-m block`
        is the default for collectives. (Under the literal max-hops
        metric some constant-msize patterns price the two layouts
        equally: cyclic merely reshuffles which step pays the
        cross-leaf max.)"""
        topo = two_level_tree(2, 4)
        state = ClusterState(topo)
        nodes = np.arange(8)
        state.allocate(1, nodes, JobKind.COMM)
        model = CostModel()
        pattern = RecursiveHalvingVectorDoubling()
        block = model.allocation_cost(state, block_distribution(nodes, 2), pattern)
        cyclic = model.allocation_cost(state, cyclic_distribution(nodes, 2), pattern)
        assert block < cyclic

    def test_intra_node_pairs_free(self):
        """With all ranks on one node every collective step costs 0."""
        topo = two_level_tree(2, 4)
        state = ClusterState(topo)
        state.allocate(1, [0], JobKind.COMM)
        layout = block_distribution([0], tasks_per_node=8)
        cost = CostModel().allocation_cost(
            state, layout, RecursiveHalvingVectorDoubling()
        )
        assert cost == 0.0
