"""The zoo additions: sa, mc, fault-aware — contract + behavior tests.

The generic contract (exact size, free/UP nodes, determinism, no state
mutation) is already asserted for every registered allocator by the
hypothesis suite in ``test_properties.py``; these tests add fault
*churn* to the picture and pin down each family's characteristic
behavior.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import (
    ContiguousAllocator,
    FaultAwareAllocator,
    GreedyAllocator,
    SimulatedAnnealingAllocator,
    get_allocator,
)
from repro.cluster import AVAIL_UP, ClusterState, JobKind
from repro.topology import tree_from_leaf_sizes, two_level_tree

from ..conftest import gather, make_comm_job, make_compute_job

#: the three allocators this PR adds, with a non-default tuning each
NEW_SPECS = (
    "sa",
    "sa:iters=16,seed=3",
    "mc",
    "mc:span_weight=0.1",
    "fault-aware",
    "fault-aware:bias=4.0",
)


@st.composite
def churned_scenarios(draw):
    """Topology + occupancy + down/up churn + feasible request size."""
    leaf_sizes = draw(
        st.lists(st.integers(min_value=2, max_value=12), min_size=2, max_size=5)
    )
    topo = tree_from_leaf_sizes(leaf_sizes)
    state = ClusterState(topo)
    n = topo.n_nodes
    busy = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n // 3))
    if busy:
        state.allocate(9001, sorted(busy), JobKind.COMM)
    # churn: down some currently-free nodes, then bring a few back up
    free = np.flatnonzero(state.node_state == 0)
    downs = draw(st.sets(st.sampled_from(free.tolist()), max_size=len(free) // 2)) if len(free) else set()
    if downs:
        state.mark_down(sorted(downs))
        ups = draw(st.sets(st.sampled_from(sorted(downs)), max_size=len(downs) // 2))
        if ups:
            state.mark_up(sorted(ups))
    if state.total_free == 0:
        state.mark_up([free[0]] if len(free) else [0])
    request = draw(st.integers(min_value=1, max_value=state.total_free))
    return state, request


@given(churned_scenarios(), st.sampled_from(NEW_SPECS), st.sampled_from(["comm", "compute"]))
@settings(max_examples=150, deadline=None)
def test_new_allocators_respect_availability_under_churn(scenario, spec, kind):
    """Only free AND UP nodes come back, exactly request-many, post-churn."""
    state, request = scenario
    job = (
        make_comm_job(job_id=1, nodes=request)
        if kind == "comm"
        else make_compute_job(job_id=1, nodes=request)
    )
    nodes = gather(state, get_allocator(spec).allocate(state, job))
    assert len(nodes) == request
    assert len(set(nodes.tolist())) == request
    assert (state.node_state[nodes] == 0).all()
    assert (state.node_avail[nodes] == AVAIL_UP).all()
    state.validate()


@given(churned_scenarios(), st.sampled_from(NEW_SPECS))
@settings(max_examples=100, deadline=None)
def test_new_allocators_deterministic_under_fixed_seed(scenario, spec):
    state, request = scenario
    job = make_comm_job(job_id=7, nodes=request)
    a, b = get_allocator(spec), get_allocator(spec)
    assert a.allocate(state, job) == b.allocate(state, job)


class TestSimulatedAnnealing:
    def test_never_worse_than_its_greedy_seed(self):
        """SA starts from the greedy placement and only accepts tracked
        best improvements, so its final cost is <= greedy's."""
        topo = two_level_tree(n_leaves=6, nodes_per_leaf=8)
        state = ClusterState(topo)
        state.allocate(9001, list(range(0, 40, 3)), JobKind.COMM)
        job = make_comm_job(job_id=1, nodes=16)
        sa = SimulatedAnnealingAllocator(iters=200, seed=0)
        greedy_takes = GreedyAllocator().allocate(state, job)
        sa_takes = sa.allocate(state, job)
        assert sa._cost(state, job, sa_takes) <= sa._cost(state, job, greedy_takes) + 1e-12

    def test_zero_iters_matches_greedy(self):
        topo = two_level_tree(n_leaves=4, nodes_per_leaf=8)
        state = ClusterState(topo)
        state.allocate(9001, [0, 1, 2, 8, 9], JobKind.COMM)
        job = make_comm_job(job_id=1, nodes=12)
        assert (
            SimulatedAnnealingAllocator(iters=0).allocate(state, job)
            == GreedyAllocator().allocate(state, job)
        )

    def test_seed_changes_can_change_the_search_path(self):
        sa = SimulatedAnnealingAllocator(iters=50, seed=0)
        sa2 = SimulatedAnnealingAllocator(iters=50, seed=1)
        assert sa.seed != sa2.seed  # constructor plumbs the seed through

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            SimulatedAnnealingAllocator(iters=-1)
        with pytest.raises(ValueError):
            SimulatedAnnealingAllocator(alpha=0.0)
        with pytest.raises(ValueError):
            SimulatedAnnealingAllocator(alpha=1.5)


class TestContiguous:
    def test_prefers_a_contiguous_leaf_block(self):
        """With a contiguous gap available, mc packs the job into it."""
        topo = two_level_tree(n_leaves=6, nodes_per_leaf=4)
        state = ClusterState(topo)
        # occupy leaves 0 and 5 entirely; 1-4 are a free contiguous run
        state.allocate(9001, [0, 1, 2, 3, 20, 21, 22, 23], JobKind.COMM)
        takes = ContiguousAllocator().allocate(state, make_comm_job(job_id=1, nodes=8))
        nodes = gather(state, takes)
        leaves = np.unique(topo.leaf_of_node[nodes])
        assert leaves.max() - leaves.min() == len(leaves) - 1  # contiguous
        assert len(leaves) == 2  # tightest block: two full adjacent leaves

    def test_span_weight_breaks_distance_ties_toward_tight_spans(self):
        topo = two_level_tree(n_leaves=8, nodes_per_leaf=2)
        state = ClusterState(topo)
        takes = ContiguousAllocator(span_weight=0.5).allocate(
            state, make_comm_job(job_id=1, nodes=4)
        )
        nodes = gather(state, takes)
        leaves = np.unique(topo.leaf_of_node[nodes])
        assert leaves.max() - leaves.min() <= 1


class TestFaultAware:
    def test_avoids_failure_correlated_leaves(self):
        """Given equal contention, the allocator steers away from the
        leaf whose nodes keep going down."""
        topo = two_level_tree(n_leaves=4, nodes_per_leaf=8)
        state = ClusterState(topo)
        # leaf 0 has a deep failure history (down/up cycles), all free now
        for _ in range(5):
            state.mark_down([0, 1, 2])
            state.mark_up([0, 1, 2])
        assert state.leaf_faults.tolist() == [15, 0, 0, 0]
        # 12 nodes spans leaves, so the per-leaf score ordering applies
        # (a single-leaf fit would take the shared lowest-level-switch
        # fast path that every allocator starts with)
        takes = FaultAwareAllocator(bias=4.0).allocate(
            state, make_comm_job(job_id=1, nodes=12)
        )
        nodes = gather(state, takes)
        assert 0 not in np.unique(topo.leaf_of_node[nodes])

    def test_no_history_degrades_to_greedy(self):
        topo = two_level_tree(n_leaves=4, nodes_per_leaf=8)
        state = ClusterState(topo)
        state.allocate(9001, [0, 1, 8, 9, 10], JobKind.COMM)
        job = make_comm_job(job_id=1, nodes=10)
        assert (
            gather(state, FaultAwareAllocator().allocate(state, job)).tolist()
            == gather(state, GreedyAllocator().allocate(state, job)).tolist()
        )


class TestLeafFaultHistory:
    """ClusterState.leaf_faults — the availability history the
    fault-aware allocator reads."""

    def test_counts_down_transitions_per_leaf(self):
        state = ClusterState(two_level_tree(n_leaves=3, nodes_per_leaf=4))
        state.mark_down([0, 1, 4])
        assert state.leaf_faults.tolist() == [2, 1, 0]

    def test_monotonic_across_recovery(self):
        state = ClusterState(two_level_tree(n_leaves=2, nodes_per_leaf=4))
        state.mark_down([0])
        state.mark_up([0])
        state.mark_down([0])
        assert state.leaf_faults.tolist() == [2, 0]

    def test_already_down_nodes_do_not_recount(self):
        state = ClusterState(two_level_tree(n_leaves=2, nodes_per_leaf=4))
        state.mark_down([0, 1])
        state.mark_down([1, 2])  # 1 is already down: only 2 transitions
        assert state.leaf_faults.tolist() == [3, 0]

    def test_snapshot_roundtrip_preserves_history(self):
        topo = two_level_tree(n_leaves=2, nodes_per_leaf=4)
        state = ClusterState(topo)
        state.mark_down([0, 5])
        restored = ClusterState.from_snapshot_dict(topo, state.snapshot_dict())
        assert restored.leaf_faults.tolist() == state.leaf_faults.tolist()

    def test_old_snapshots_restore_zero_history(self):
        topo = two_level_tree(n_leaves=2, nodes_per_leaf=4)
        state = ClusterState(topo)
        data = state.snapshot_dict()
        del data["leaf_faults"]
        restored = ClusterState.from_snapshot_dict(topo, data)
        assert restored.leaf_faults.tolist() == [0, 0]

    def test_copy_is_independent(self):
        state = ClusterState(two_level_tree(n_leaves=2, nodes_per_leaf=4))
        state.mark_down([0])
        clone = state.copy()
        clone.mark_down([1])
        assert state.leaf_faults.tolist() == [1, 0]
        assert clone.leaf_faults.tolist() == [2, 0]
