"""The flattened leaf-pair kernel agrees bitwise with the per-step loop.

PR 4 flattens every step's unique leaf pairs into one array and takes
the per-step maxima with a single ``maximum.reduceat``; the original
per-step evaluation survives behind ``is_legacy()``. Both perform the
same elementwise arithmetic and exact maxima, so the results must be
``==``-equal, never ``approx`` — including on rank layouts with
repeated nodes, whose intra-node pairs the flat kernel drops by node id.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._perfflags import legacy_mode
from repro.cluster import ClusterState, JobKind
from repro.cost import CostModel, clear_leaf_pair_cache
from repro.cost.contention import ContentionModel
from repro.patterns import get_pattern, pattern_names
from repro.topology import tree_from_leaf_sizes

CONTENTION_MODELS = (
    ContentionModel(),
    ContentionModel(uplink_discount=1.0),
    ContentionModel(uplink_discount=0.5, per_level=True),
)


@st.composite
def occupied_states(draw):
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


@given(
    occupied_states(),
    st.sampled_from(pattern_names()),
    st.sampled_from(CONTENTION_MODELS),
    st.booleans(),
    st.booleans(),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_flat_kernel_matches_legacy_per_step(
    state, pattern_name, contention, by_msize, repeat_nodes, data
):
    n = state.topology.n_nodes
    nranks = data.draw(st.integers(min_value=1, max_value=min(n, 32)))
    if repeat_nodes:
        ranks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=nranks, max_size=nranks,
            )
        )
        node_arr = np.asarray(ranks, dtype=np.int64)
    else:
        perm = data.draw(st.permutations(range(n)))
        node_arr = np.asarray(perm[:nranks], dtype=np.int64)
    model = CostModel(contention=contention, weight_by_msize=by_msize)
    pattern = get_pattern(pattern_name)

    clear_leaf_pair_cache()
    fast = model.allocation_cost(state, node_arr, pattern)
    state._cost_cache.clear()
    clear_leaf_pair_cache()
    with legacy_mode():
        slow = model.allocation_cost(state, node_arr, pattern)
    assert fast == slow
