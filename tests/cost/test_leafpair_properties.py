"""Property tests: the leaf-pair Eq. 6 kernel matches the per-pair path.

The kernel (:mod:`repro.cost.leafpair`) takes each step's max over
unique leaf pairs instead of node pairs; because it mirrors the scalar
arithmetic of :func:`repro.cost.contention.contention_factor`
operation-for-operation, the two evaluations must agree *bitwise* —
every assertion here is ``==``, never ``approx``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterState, JobKind
from repro.cost import CostModel, clear_leaf_pair_cache
from repro.cost.contention import ContentionModel
from repro.cost.hops import effective_hops_scalar
from repro.cost.model import _cached_steps
from repro.patterns import get_pattern, pattern_names
from repro.topology import tree_from_leaf_sizes
from repro.topology.random import random_tree

#: the paper's model plus §7 generalizations, including per-level decay
CONTENTION_MODELS = (
    ContentionModel(),
    ContentionModel(uplink_discount=1.0),
    ContentionModel(uplink_discount=0.5, per_level=True),
    ContentionModel(uplink_discount=0.25, per_level=True),
)


def eq6_per_pair_scalar(state, node_arr, pattern, model):
    """Literal Eq. 6 via the scalar Eq. 5 reference, one pair at a time."""
    total = 0.0
    for step in _cached_steps(pattern, int(len(node_arr))):
        if step.n_pairs == 0:
            continue
        worst = max(
            effective_hops_scalar(
                state, int(node_arr[a]), int(node_arr[b]), model.contention
            )
            for a, b in step.pairs
        )
        weight = step.msize if model.weight_by_msize else 1.0
        total += worst * weight * step.repeat
    return total


@st.composite
def occupied_states(draw):
    """A random small topology with a random comm/compute occupancy."""
    leaf_sizes = draw(
        st.lists(st.integers(min_value=2, max_value=8), min_size=2, max_size=5)
    )
    topo = tree_from_leaf_sizes(leaf_sizes)
    state = ClusterState(topo)
    n = topo.n_nodes
    kinds = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    comm_nodes = [i for i, k in enumerate(kinds) if k == 2]
    compute_nodes = [i for i, k in enumerate(kinds) if k == 1]
    if comm_nodes:
        state.allocate(1, comm_nodes, JobKind.COMM)
    if compute_nodes:
        state.allocate(2, compute_nodes, JobKind.COMPUTE)
    return state


@st.composite
def deep_occupied_states(draw):
    """A random 3-level tree with a random comm occupancy (exercises
    per-level contention, where LCA depth matters)."""
    topo = random_tree(draw(st.integers(min_value=0, max_value=50)))
    state = ClusterState(topo)
    n = topo.n_nodes
    n_comm = draw(st.integers(min_value=0, max_value=n))
    if n_comm:
        perm = draw(st.permutations(range(n)))
        state.allocate(1, sorted(perm[:n_comm]), JobKind.COMM)
    return state


@given(
    occupied_states(),
    st.sampled_from(pattern_names()),
    st.sampled_from(CONTENTION_MODELS),
    st.booleans(),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_kernel_matches_pairwise_reference(state, pattern_name, contention, by_msize, data):
    n = state.topology.n_nodes
    take = data.draw(st.integers(min_value=2, max_value=min(n, 16)))
    perm = data.draw(st.permutations(range(n)))
    nodes = np.asarray(perm[:take], dtype=np.int64)
    pattern = get_pattern(pattern_name)
    model = CostModel(weight_by_msize=by_msize, contention=contention)
    clear_leaf_pair_cache()
    kernel = model.allocation_cost(state, nodes, pattern)
    assert kernel == model.allocation_cost_pairwise(state, nodes, pattern)


@given(
    occupied_states(),
    st.sampled_from(["rd", "rhvd", "binomial", "ring"]),
    st.sampled_from(CONTENTION_MODELS),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_scalar_reference(state, pattern_name, contention, data):
    n = state.topology.n_nodes
    take = data.draw(st.integers(min_value=2, max_value=min(n, 10)))
    perm = data.draw(st.permutations(range(n)))
    nodes = np.asarray(perm[:take], dtype=np.int64)
    pattern = get_pattern(pattern_name)
    model = CostModel(contention=contention)
    assert model.allocation_cost(state, nodes, pattern) == eq6_per_pair_scalar(
        state, nodes, pattern, model
    )


@given(
    deep_occupied_states(),
    st.sampled_from(["rd", "rhvd", "alltoall", "stencil2d"]),
    st.sampled_from(CONTENTION_MODELS),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_pairwise_on_deep_trees(state, pattern_name, contention, data):
    n = state.topology.n_nodes
    if n < 2:
        return
    take = data.draw(st.integers(min_value=2, max_value=min(n, 16)))
    perm = data.draw(st.permutations(range(n)))
    nodes = np.asarray(perm[:take], dtype=np.int64)
    pattern = get_pattern(pattern_name)
    model = CostModel(contention=contention)
    assert model.allocation_cost(state, nodes, pattern) == (
        model.allocation_cost_pairwise(state, nodes, pattern)
    )


@given(
    occupied_states(),
    st.sampled_from(pattern_names()),
    st.sampled_from(CONTENTION_MODELS),
    st.booleans(),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_pairwise_with_repeated_nodes(
    state, pattern_name, contention, by_msize, data
):
    """srun-style rank layouts repeat node ids (several ranks per node);
    the kernel must price intra-node pairs at 0 exactly like the
    per-pair path does."""
    n = state.topology.n_nodes
    nranks = data.draw(st.integers(min_value=1, max_value=32))
    nodes = np.asarray(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=nranks,
                max_size=nranks,
            )
        ),
        dtype=np.int64,
    )
    pattern = get_pattern(pattern_name)
    model = CostModel(weight_by_msize=by_msize, contention=contention)
    clear_leaf_pair_cache()
    kernel = model.allocation_cost(state, nodes, pattern)
    assert kernel == model.allocation_cost_pairwise(state, nodes, pattern)
    assert kernel == eq6_per_pair_scalar(state, nodes, pattern, model)


@given(occupied_states(), st.sampled_from(["rd", "rhvd"]), st.data())
@settings(max_examples=40, deadline=None)
def test_layout_and_leaf_cache_keys_do_not_collide(state, pattern_name, data):
    """A duplicated layout and a unique allocation that share a leaf
    assignment must not read each other's cached reduction."""
    n = state.topology.n_nodes
    node = data.draw(st.integers(min_value=0, max_value=n - 1))
    pattern = get_pattern(pattern_name)
    model = CostModel()
    clear_leaf_pair_cache()
    # all ranks on one node: every pair intra-node, cost exactly 0
    layout = np.full(4, node, dtype=np.int64)
    assert model.allocation_cost(state, layout, pattern) == 0.0
    # distinct nodes (some sharing the leaf) must still be priced > 0
    others = [i for i in range(n) if i != node][:3]
    alloc = np.asarray([node] + others, dtype=np.int64)
    assert model.allocation_cost(state, alloc, pattern) == (
        model.allocation_cost_pairwise(state, alloc, pattern)
    )
