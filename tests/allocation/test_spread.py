"""Tests for the spread allocator baseline."""

import numpy as np

from repro.allocation import get_allocator
from repro.allocation.spread import SpreadAllocator
from repro.cluster import ClusterState, JobKind
from repro.cost import CostModel
from repro.patterns import RecursiveDoubling, RecursiveHalvingVectorDoubling
from repro.topology import tree_from_leaf_sizes

from ..conftest import gather, make_comm_job


def leaf_counts(topo, nodes):
    leaves, counts = np.unique(topo.leaf_of_node[np.asarray(nodes)], return_counts=True)
    return dict(zip(leaves.tolist(), counts.tolist()))


class TestSpread:
    def test_even_striping(self):
        topo = tree_from_leaf_sizes([8, 8, 8])
        state = ClusterState(topo)
        nodes = gather(state, SpreadAllocator().allocate(state, make_comm_job(nodes=9)))
        assert leaf_counts(topo, nodes) == {0: 3, 1: 3, 2: 3}

    def test_uneven_request_spreads_remainder(self):
        topo = tree_from_leaf_sizes([8, 8, 8])
        state = ClusterState(topo)
        takes = SpreadAllocator().allocate(state, make_comm_job(nodes=10))
        nodes = gather(state, takes)
        counts = leaf_counts(topo, nodes)
        assert sorted(counts.values()) == [3, 3, 4]

    def test_respects_free_limits(self):
        topo = tree_from_leaf_sizes([8, 8, 8])
        state = ClusterState(topo)
        state.allocate(1, list(range(0, 6)), JobKind.COMPUTE)  # leaf 0: 2 free
        takes = SpreadAllocator().allocate(state, make_comm_job(job_id=2, nodes=12))
        nodes = gather(state, takes)
        counts = leaf_counts(topo, nodes)
        assert counts[0] == 2
        assert counts[1] + counts[2] == 10

    def test_leaf_fit_short_circuits(self):
        topo = tree_from_leaf_sizes([8, 8])
        state = ClusterState(topo)
        nodes = gather(state, SpreadAllocator().allocate(state, make_comm_job(nodes=4)))
        assert len(leaf_counts(topo, nodes)) == 1

    def test_spread_costs_more_on_a_contended_cluster(self):
        """With communication-intensive neighbours around, striping a
        job across every switch overlaps all of them; balanced blocks
        dodge the noisy leaves and cost less under Eqs. 2-6 (RD: every
        step weighs equally, so the noisy-leaf steps cannot hide)."""
        topo = tree_from_leaf_sizes([16, 16, 16, 16])
        model = CostModel()
        costs = {}
        for name in ("spread", "balanced"):
            state = ClusterState(topo)
            # neighbours on leaves 0 and 1
            state.allocate(100, list(range(0, 12)), JobKind.COMM)
            state.allocate(101, list(range(16, 28)), JobKind.COMM)
            # 24 nodes cannot fit one leaf: balanced takes the two quiet
            # leaves; spread also stripes onto the two noisy ones
            job = make_comm_job(nodes=24, pattern=RecursiveDoubling())
            nodes = gather(state, get_allocator(name).allocate(state, job))
            state.allocate(job.job_id, nodes, job.kind)
            costs[name] = model.allocation_cost(
                state, nodes, RecursiveDoubling()
            )
        assert costs["spread"] > costs["balanced"]

    def test_empty_cluster_self_contention_nuance(self):
        """Documented model property: on an *empty* cluster, Eqs. 2-3
        count the job's own nodes, so dense blocks carry more
        self-contention than stripes and spreading can price *lower*.
        The advantage of balanced placement comes from avoiding other
        jobs (previous test), not from an empty machine."""
        topo = tree_from_leaf_sizes([16, 16, 16, 16])
        model = CostModel()
        job = make_comm_job(nodes=32, pattern=RecursiveHalvingVectorDoubling())
        costs = {}
        for name in ("spread", "balanced"):
            state = ClusterState(topo)
            nodes = gather(state, get_allocator(name).allocate(state, job))
            state.allocate(job.job_id, nodes, job.kind)
            costs[name] = model.allocation_cost(
                state, nodes, RecursiveHalvingVectorDoubling()
            )
        assert costs["spread"] < costs["balanced"]

    def test_registered(self):
        assert get_allocator("spread").name == "spread"
