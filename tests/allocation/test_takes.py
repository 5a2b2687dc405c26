"""Placements as per-leaf takes: gathering, pricing and rejection.

Allocators return :class:`~repro.cluster.state.Takes` (distinct leaves
with positive counts, in rank order). These properties pin what the
rest of the system does with them against written-out references:

* ``ClusterState.allocate`` records, for every registered allocator on
  churned states with DOWN and DRAINING nodes, the lowest allocatable
  ids of each leaf in take order;
* Eq. 6 of the takes equals Eq. 6 of the gathered ids and the per-pair
  reference, bit for bit, on both routes of the leaf-pair kernel, and
  an overlay built from takes holds the post-allocation ``leaf_comm``;
* malformed takes raise ``ValueError`` from ``allocate``, the overlay
  and Eq. 6 without touching the state.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import AllocationError, allocator_names, get_allocator
from repro.cluster import ClusterState, CommComponent, Job, JobKind, Takes
from repro.cluster.state import AVAIL_UP, NODE_FREE
from repro.cost import CostModel, leafpair
from repro.cost.contention import ContentionModel
from repro.patterns import Stencil2D, get_pattern, pattern_names, RecursiveDoubling
from repro.topology import three_level_tree, tree_from_leaf_sizes

PATTERNS = [get_pattern(name) for name in pattern_names()] + [Stencil2D(periodic=True)]

CONTENTION_MODELS = (
    ContentionModel(),
    ContentionModel(uplink_discount=0.5, per_level=True),
)

KINDS = (JobKind.COMM, JobKind.COMPUTE, JobKind.IO)


@lru_cache(maxsize=None)
def trees():
    """Two shapes: unequal leaves under one root, and a three-level tree."""
    return (
        tree_from_leaf_sizes([6, 16, 4, 9, 12, 5]),
        three_level_tree(n_pods=2, leaves_per_pod=3, nodes_per_leaf=8),
    )


@st.composite
def churned_states(draw):
    """A state after random allocations, releases, drains, downs and repairs."""
    topo = draw(st.sampled_from(trees()))
    state = ClusterState(topo)
    n = topo.n_nodes
    next_id = 100
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        op = draw(st.sampled_from(["alloc", "alloc", "release", "down", "drain", "up"]))
        free = np.flatnonzero(state.allocatable)
        if op == "alloc" and free.size:
            picked = draw(
                st.lists(st.sampled_from(free.tolist()), min_size=1, max_size=12, unique=True)
            )
            state.allocate(next_id, picked, draw(st.sampled_from(KINDS)))
            next_id += 1
        elif op == "release" and state.running:
            state.release(draw(st.sampled_from(sorted(state.running))))
        elif op == "down":
            idle = np.flatnonzero(state.node_state == NODE_FREE).tolist()
            if idle:
                state.mark_down(draw(st.lists(st.sampled_from(idle), max_size=3)))
        elif op == "drain":
            state.mark_drain(draw(st.lists(st.integers(0, n - 1), max_size=3)))
        elif op == "up":
            state.mark_up(draw(st.lists(st.integers(0, n - 1), max_size=3)))
    state.validate()
    return state


def lowest_allocatable_loop(state, takes):
    """The ids a placement must get: per take, the lowest free UP ids of its leaf."""
    ids = []
    for leaf, count in zip(takes.leaves.tolist(), takes.counts.tolist()):
        lo = int(state.topology.leaf_node_offset[leaf])
        hi = int(state.topology.leaf_node_offset[leaf + 1])
        free = [
            node for node in range(lo, hi)
            if state.node_state[node] == NODE_FREE and state.node_avail[node] == AVAIL_UP
        ]
        ids.extend(free[:count])
    return ids


@given(churned_states(), st.sampled_from(KINDS), st.data())
@settings(max_examples=60, deadline=None)
def test_allocate_records_lowest_allocatable_ids_per_take(state, kind, data):
    if state.total_free == 0:
        return
    size = data.draw(st.integers(min_value=1, max_value=state.total_free))
    comm = (CommComponent(RecursiveDoubling(), 0.5),) if kind is JobKind.COMM else ()
    job = Job(job_id=1, submit_time=0.0, nodes=size, runtime=10.0, kind=kind, comm=comm)
    for name in allocator_names():
        spec = "sa:iters=20" if name == "sa" else name
        try:
            takes = get_allocator(spec).allocate(state, job)
        except AllocationError:
            continue
        leaves, counts = takes.leaves, takes.counts
        assert len(set(leaves.tolist())) == leaves.size, name
        assert (counts >= 1).all() and (counts <= state.leaf_free[leaves]).all(), name
        assert int(counts.sum()) == size, name
        trial = state.copy()
        nodes = trial.allocate(job.job_id, takes, kind)
        assert nodes.tolist() == lowest_allocatable_loop(state, takes), name
        assert trial.running[job.job_id].nodes.tolist() == sorted(nodes.tolist()), name
        trial.validate()


@lru_cache(maxsize=None)
def pricing_base(seed):
    """A 12-leaf tree of 128-node leaves with random comm and compute load."""
    topo = three_level_tree(n_pods=3, leaves_per_pod=4, nodes_per_leaf=128)
    rng = np.random.default_rng(seed)
    draw = rng.random(topo.n_nodes)
    p_comm = rng.random(topo.n_leaves)[topo.leaf_of_node] * 0.4
    state = ClusterState(topo)
    comm = np.flatnonzero(draw < p_comm)
    compute = np.flatnonzero((draw >= p_comm) & (draw < p_comm + 0.15))
    if comm.size:
        state.allocate(1, comm, JobKind.COMM)
    if compute.size:
        state.allocate(2, compute, JobKind.COMPUTE)
    return state


def test_eq6_of_takes_matches_gathered_ids_and_pairwise():
    routes = []

    @given(
        st.integers(min_value=0, max_value=3),
        st.sampled_from(PATTERNS),
        st.sampled_from(CONTENTION_MODELS),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def check(seed, pattern, contention, data):
        base = pricing_base(seed)
        order = data.draw(st.permutations(np.flatnonzero(base.leaf_free > 0).tolist()))
        n_takes = data.draw(st.integers(min_value=1, max_value=min(10, len(order))))
        leaves = order[:n_takes]
        # whole leaves give few long runs (the run route); alltoall's
        # per-pair reference is O(P^2), so it stays under 100 ranks
        cap = 24 if pattern.name == "alltoall" else None
        counts = []
        for leaf in leaves[:4] if cap else leaves:
            free = min(int(base.leaf_free[leaf]), cap or int(base.leaf_free[leaf]))
            counts.append(data.draw(st.one_of(st.just(free), st.integers(1, free))))
        leaves = leaves[: len(counts)]
        takes = Takes(leaves, counts)
        view = base.comm_overlay(takes, JobKind.COMM)
        trial = base.copy()
        nodes = trial.allocate(9, takes, JobKind.COMM)
        assert view.leaf_comm.tolist() == trial.leaf_comm.tolist()
        model = CostModel(contention=contention)
        with mock.patch.object(
            leafpair, "_run_candidates", wraps=leafpair._run_candidates
        ) as spy:
            priced = model.allocation_cost(trial, takes, pattern)
        routes.append(spy.called)
        assert priced == model.allocation_cost(trial, nodes, pattern)
        assert priced == model.allocation_cost_pairwise(trial, nodes, pattern)
        assert model.allocation_cost(view, takes, pattern) == priced

    check()
    assert any(routes), "no drawn placement took the run route"
    assert not all(routes), "no drawn placement took the rank-pair route"


def malformed(state):
    """(label, takes) per malformed case; each leaf named has a free node."""
    topo = state.topology
    free = np.flatnonzero(state.leaf_free > 0)
    a, b = int(free[0]), int(free[-1])
    return [
        ("repeated leaf", Takes([a, b, a], [1, 1, 1]), "repeat a leaf"),
        ("over allocatable", Takes([a], [int(state.leaf_free[a]) + 1]), "can give"),
        ("count 0", Takes([b, a], [1, 0]), "can give"),
        ("leaf -1", Takes([a, -1], [1, 1]), "outside"),
        ("leaf n_leaves", Takes([topo.n_leaves], [1]), "outside"),
    ]


@pytest.mark.parametrize("tree", [0, 1])
def test_malformed_takes_raise_and_leave_state_unchanged(tree):
    topo = trees()[tree]
    state = ClusterState(topo)
    state.allocate(50, [0, 1, topo.n_nodes - 1], JobKind.COMM)
    state.mark_drain([2])
    state.mark_down([int(topo.leaf_node_offset[1])])
    # the last leaf keeps free nodes, so a wrapped leaf -1 would succeed
    assert state.leaf_free[-1] > 0
    counters = (state.leaf_free.copy(), state.leaf_comm.copy(), state.leaf_offline.copy())
    version = state.version
    model = CostModel()
    for label, takes, message in malformed(state):
        with pytest.raises(ValueError, match=message):
            state.allocate(7, takes, JobKind.COMM)
        with pytest.raises(ValueError, match=message):
            state.comm_overlay(takes, JobKind.COMM)
        if label == "over allocatable":
            # Eq. 6 prices states that already hold the job, so its bound
            # is the leaf's size
            leaf = int(takes.leaves[0])
            takes = Takes([leaf], [int(topo.leaf_sizes[leaf]) + 1])
        with pytest.raises(ValueError, match=message):
            model.allocation_cost(state, takes, RecursiveDoubling())
    assert state.version == version
    assert 7 not in state.running
    for before, after in zip(counters, (state.leaf_free, state.leaf_comm, state.leaf_offline)):
        assert before.tolist() == after.tolist()
    state.validate()


def test_takes_need_matching_one_dimensional_arrays():
    with pytest.raises(ValueError, match="equal length"):
        Takes([0, 1], [2])
    with pytest.raises(ValueError, match="equal length"):
        Takes([[0]], [[2]])
