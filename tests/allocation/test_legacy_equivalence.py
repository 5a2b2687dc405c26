"""Vectorized allocator helpers agree exactly with the loops they replaced.

The allocator inner loops (cumsum chunk selection, batched switch
search, the state's one-scan node gathering from takes, the node->job
index) were once plain per-leaf/per-switch Python loops. Those legacy loop forms survive as
oracles: ``find_lowest_level_switch_reference`` and
``balanced_split_reference`` in the package, the others as a few lines
inside the tests below. These properties pin each vectorized path to
its loop on random topologies and occupancies; whole-allocator choices
are pinned by ``tests/scheduler/test_golden_results.py``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.balanced import balanced_split, balanced_split_reference
from repro.allocation.base import (
    find_lowest_level_switch,
    find_lowest_level_switch_reference,
    ordered_takes,
)
from repro.cluster import ClusterState, JobKind, Takes
from repro.cluster.state import AVAIL_UP, NODE_FREE
from repro.topology import tree_from_leaf_sizes


@st.composite
def scenarios(draw):
    """Random topology + occupancy + availability + feasible request size."""
    leaf_sizes = draw(
        st.lists(st.integers(min_value=2, max_value=16), min_size=1, max_size=6)
    )
    topo = tree_from_leaf_sizes(leaf_sizes)
    state = ClusterState(topo)
    n = topo.n_nodes
    busy_fraction = draw(st.floats(min_value=0.0, max_value=0.7))
    n_busy = int(n * busy_fraction)
    if n_busy:
        perm = draw(st.permutations(range(n)))
        busy = list(perm)[:n_busy]
        half = len(busy) // 2
        if busy[:half]:
            state.allocate(9001, busy[:half], JobKind.COMM)
        if busy[half:]:
            state.allocate(9002, busy[half:], JobKind.COMPUTE)
    if state.total_free > 3:
        # a few DRAINING (free or busy) and DOWN (free) nodes, which no
        # allocatable-node path may hand out
        marked = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3))
        state.mark_drain(marked[:2])
        state.mark_down([m for m in marked[2:] if state.node_state[m] == NODE_FREE])
    request = draw(st.integers(min_value=1, max_value=state.total_free))
    return state, request


def free_nodes_loop(state, leaf):
    """Allocatable node ids of ``leaf`` straight from the node arrays."""
    lo = int(state.topology.leaf_node_offset[leaf])
    hi = int(state.topology.leaf_node_offset[leaf + 1])
    return np.asarray(
        [
            node for node in range(lo, hi)
            if state.node_state[node] == NODE_FREE and state.node_avail[node] == AVAIL_UP
        ],
        dtype=np.int64,
    )


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_switch_search_matches_reference(scenario):
    state, request = scenario
    fast = find_lowest_level_switch(state, request)
    slow = find_lowest_level_switch_reference(state, request)
    if slow is None:
        assert fast is None
    else:
        assert fast is not None
        assert fast.level == slow.level
        assert fast.leaf_lo == slow.leaf_lo
        assert fast.leaf_hi == slow.leaf_hi


@given(
    st.lists(st.integers(min_value=0, max_value=32), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=200),
)
@settings(max_examples=200, deadline=None)
def test_ordered_takes_matches_fill_loop(free, n_nodes):
    remaining = n_nodes
    expected = []
    for f in free:
        take = min(f, remaining)
        expected.append(take)
        remaining -= take
    assert ordered_takes(np.asarray(free), n_nodes).tolist() == expected


@given(
    st.lists(st.integers(min_value=0, max_value=64), min_size=1, max_size=10),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=200, deadline=None)
def test_balanced_split_matches_reference(free, n_nodes):
    free_arr = np.asarray(free, dtype=np.int64)
    if int(free_arr.sum()) < n_nodes:
        n_nodes = max(1, int(free_arr.sum()))
    if int(free_arr.sum()) == 0:
        return
    assert np.array_equal(
        balanced_split(free_arr, n_nodes),
        balanced_split_reference(free_arr, n_nodes),
    )


@given(scenarios(), st.data())
@settings(max_examples=150, deadline=None)
def test_gather_nodes_matches_legacy(scenario, data):
    state, request = scenario
    leaves = np.flatnonzero(state.leaf_free > 0)
    if leaves.size == 0:
        return
    order = data.draw(st.permutations(leaves.tolist()))
    takes = []
    remaining = request
    for leaf in order:
        take = data.draw(
            st.integers(min_value=0, max_value=int(state.leaf_free[leaf]))
        )
        take = min(take, remaining)
        takes.append((int(leaf), take))
        remaining -= take
    used = [(leaf, count) for leaf, count in takes if count > 0]
    if not used:
        return
    expected = np.concatenate([free_nodes_loop(state, leaf)[:count] for leaf, count in used])
    leaves, counts = zip(*used)
    nodes = state.allocate(1, Takes(leaves, counts), JobKind.COMM)
    assert np.array_equal(nodes, expected)
    assert np.array_equal(state.running[1].nodes, np.sort(expected))
    state.validate()


@given(scenarios(), st.data())
@settings(max_examples=100, deadline=None)
def test_jobs_on_matches_legacy_scan(scenario, data):
    state, _ = scenario
    n = state.topology.n_nodes
    probe = data.draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=20)
    )
    hit = np.zeros(n, dtype=bool)
    hit[probe] = True
    expected = sorted(
        job_id for job_id, rec in state.running.items() if hit[rec.nodes].any()
    )
    assert state.jobs_on(probe) == expected


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_free_nodes_on_leaf_matches_legacy(scenario):
    """A single-leaf take gets the leaf's lowest allocatable ids."""
    state, _ = scenario
    for leaf in np.flatnonzero(state.leaf_free > 0).tolist():
        trial = state.copy()
        expected = free_nodes_loop(state, leaf)
        assert expected.size == state.leaf_free[leaf]
        nodes = trial.allocate(1, Takes([leaf], [expected.size]), JobKind.COMPUTE)
        assert np.array_equal(nodes, expected)
