"""Tests for adaptive allocation (paper §4.3)."""

import pytest

from repro.allocation import (
    AdaptiveAllocator,
    BalancedAllocator,
    GreedyAllocator,
)
from repro.cluster import ClusterState, JobKind
from repro.cost import CostModel
from repro.patterns import Ring
from repro.topology import tree_from_leaf_sizes

from ..conftest import gather, make_comm_job, make_compute_job


@pytest.fixture
def alloc():
    return AdaptiveAllocator()


class TestDecision:
    def test_picks_min_cost_for_comm_job(self, alloc):
        topo = tree_from_leaf_sizes([10, 6, 7])
        state = ClusterState(topo)
        state.allocate(1, [0, 10], JobKind.COMM)
        job = make_comm_job(job_id=2, nodes=12)
        decision = alloc.decide(state, job)
        if decision.greedy_cost < decision.balanced_cost:
            assert decision.chosen == "greedy"
        else:
            assert decision.chosen == "balanced"

    def test_chosen_nodes_match_choice(self, alloc):
        topo = tree_from_leaf_sizes([10, 6, 7])
        state = ClusterState(topo)
        job = make_comm_job(nodes=12)
        takes = alloc.allocate(state, job)
        d = alloc.last_decision
        expected = d.greedy_takes if d.chosen == "greedy" else d.balanced_takes
        assert takes == expected
        assert gather(state, takes).tolist() == gather(state, expected).tolist()

    def test_tie_goes_to_balanced(self, alloc):
        """On an empty symmetric cluster both costs often tie."""
        topo = tree_from_leaf_sizes([8, 8])
        state = ClusterState(topo)
        decision = alloc.decide(state, make_comm_job(nodes=16))
        if decision.greedy_cost == decision.balanced_cost:
            assert decision.chosen == "balanced"

    def test_compute_job_picks_max_cost(self, alloc):
        topo = tree_from_leaf_sizes([10, 6, 7])
        state = ClusterState(topo)
        state.allocate(1, [0, 1, 10], JobKind.COMM)
        decision = alloc.decide(state, make_compute_job(job_id=2, nodes=12))
        if decision.greedy_cost > decision.balanced_cost:
            assert decision.chosen == "greedy"
        else:
            assert decision.chosen == "balanced"

    def test_cost_evaluated_with_job_applied(self, alloc):
        """An empty cluster still yields non-zero candidate costs because
        the candidate job itself contributes to contention."""
        topo = tree_from_leaf_sizes([4, 4])
        state = ClusterState(topo)
        decision = alloc.decide(state, make_comm_job(nodes=8))
        assert decision.balanced_cost > 0
        assert decision.greedy_cost > 0

    def test_never_worse_than_both_candidates(self, alloc):
        """The adaptive cost is min(greedy, balanced) for comm jobs."""
        topo = tree_from_leaf_sizes([9, 5, 12, 7])
        state = ClusterState(topo)
        state.allocate(1, [0, 1, 2, 14, 15], JobKind.COMM)
        decision = alloc.decide(state, make_comm_job(job_id=2, nodes=16))
        chosen_cost = (
            decision.greedy_cost if decision.chosen == "greedy" else decision.balanced_cost
        )
        assert chosen_cost == min(decision.greedy_cost, decision.balanced_cost)


class TestConfiguration:
    def test_custom_probe_pattern_used_for_compute(self):
        alloc = AdaptiveAllocator(probe_pattern=Ring())
        topo = tree_from_leaf_sizes([6, 6])
        state = ClusterState(topo)
        decision = alloc.decide(state, make_compute_job(nodes=8))
        assert decision.chosen in ("greedy", "balanced")

    def test_custom_cost_model(self):
        alloc = AdaptiveAllocator(cost_model=CostModel(weight_by_msize=False))
        topo = tree_from_leaf_sizes([6, 6])
        state = ClusterState(topo)
        nodes = gather(state, alloc.allocate(state, make_comm_job(nodes=8)))
        assert len(nodes) == 8

    def test_state_not_mutated(self, alloc):
        topo = tree_from_leaf_sizes([6, 6])
        state = ClusterState(topo)
        alloc.allocate(state, make_comm_job(nodes=8))
        assert state.total_free == 12
        state.validate()


class TestAgreementWithCandidates:
    def test_allocation_is_one_of_the_candidates(self, alloc):
        topo = tree_from_leaf_sizes([10, 6, 7, 9])
        state = ClusterState(topo)
        state.allocate(1, [0, 1, 16], JobKind.COMM)
        job = make_comm_job(job_id=2, nodes=14)
        nodes = gather(state, alloc.allocate(state, job))
        greedy = gather(state, GreedyAllocator().allocate(state, job))
        balanced = gather(state, BalancedAllocator().allocate(state, job))
        assert nodes.tolist() in (greedy.tolist(), balanced.tolist())
