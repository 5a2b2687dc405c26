"""Property tests: the Eq. 6 reduction over leaf runs, at run-route sizes.

For patterns made of shift blocks, :mod:`repro.cost.leafpair` prices a
job from one representative rank per block region between run
boundaries instead of from every rank pair, once the allocation has few
enough runs for that to be cheaper. The kernel neither sorts nor
deduplicates its candidates, so the test reduces each step's candidates
to their set of leaf pairs and compares it with every pair's. The other property tests stop at 32
ranks on trees of at most 5 leaves, where that route is never taken;
these draw allocations of 1–40 runs over up to 4,096 ranks, and srun
block/cyclic layouts that repeat node ids, on a 40-leaf three-level
tree. Every assertion is ``==``. Alltoall keeps its first 1,024 ranks:
at 4,096 its P - 1 steps hold 16.7M rank pairs, so the per-pair
reference takes seconds and the rank-pair route's arrays (taken by
cyclic layouts) need hundreds of MB.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterState, JobKind
from repro.cost import CostModel, leafpair
from repro.cost.contention import ContentionModel
from repro.cost.leafpair import pattern_plan
from repro.distribution import block_distribution, cyclic_distribution
from repro.patterns import Stencil2D, get_pattern, pattern_names
from repro.topology import three_level_tree

PATTERNS = [get_pattern(name) for name in pattern_names()] + [Stencil2D(periodic=True)]

CONTENTION_MODELS = (
    ContentionModel(),
    ContentionModel(uplink_discount=0.5, per_level=True),
)

SIZES = st.one_of(
    st.integers(min_value=2, max_value=4096),
    st.sampled_from([1 << k for k in range(1, 13)]),
)


@lru_cache(maxsize=None)
def topology():
    """4 pods x 10 leaves x 4,096 nodes: any run fits on any leaf."""
    return three_level_tree(4, 10, 4096)


def leaf_nodes(leaf):
    return np.flatnonzero(topology().leaf_of_node == leaf)


@st.composite
def run_allocations(draw):
    """Distinct node ids whose leaves form 1–40 runs over the ranks."""
    nranks = draw(SIZES)
    n_runs = draw(st.integers(min_value=1, max_value=min(40, nranks)))
    cuts = sorted(
        draw(
            st.sets(
                st.integers(min_value=1, max_value=nranks - 1),
                min_size=n_runs - 1,
                max_size=n_runs - 1,
            )
        )
    )
    leaves = draw(
        st.lists(
            st.integers(min_value=0, max_value=topology().n_leaves - 1),
            min_size=n_runs,
            max_size=n_runs,
        )
    )
    used = {}
    parts = []
    for leaf, lo, hi in zip(leaves, [0] + cuts, cuts + [nranks]):
        pos = used.get(leaf, 0)
        parts.append(leaf_nodes(leaf)[pos : pos + hi - lo])
        used[leaf] = pos + hi - lo
    return np.concatenate(parts)


@st.composite
def srun_layouts(draw):
    """``srun -m block`` or ``-m cyclic`` over a run allocation's nodes."""
    tasks = draw(st.integers(min_value=1, max_value=128))
    nodes = draw(run_allocations())
    nodes = nodes[: max(1, 4096 // tasks)]
    if nodes.size * tasks < 2:
        tasks = 2
    layout = draw(st.sampled_from([block_distribution, cyclic_distribution]))
    return layout(nodes, tasks)


def background_state(seed):
    """Per-leaf random comm and compute occupancy."""
    topo = topology()
    rng = np.random.default_rng(seed)
    p_comm = rng.random(topo.n_leaves)[topo.leaf_of_node] * 0.6
    draw = rng.random(topo.n_nodes)
    state = ClusterState(topo)
    comm = np.flatnonzero(draw < p_comm)
    compute = np.flatnonzero((draw >= p_comm) & (draw < p_comm + 0.2))
    if comm.size:
        state.allocate(1, comm, JobKind.COMM)
    if compute.size:
        state.allocate(2, compute, JobKind.COMPUTE)
    return state


def brute_force_leaf_pairs(step, node_arr, leaf_of_node, n_leaves):
    """Sorted canonical leaf-pair codes of ``step``'s inter-node pairs."""
    src = node_arr[step.pairs[:, 0]]
    dst = node_arr[step.pairs[:, 1]]
    keep = src != dst
    la = leaf_of_node[src[keep]]
    lb = leaf_of_node[dst[keep]]
    return np.unique(np.minimum(la, lb) * n_leaves + np.maximum(la, lb))


def test_run_layouts_match_rank_pairs():
    took_run_route = []

    @given(
        st.one_of(run_allocations(), srun_layouts()),
        st.sampled_from(PATTERNS),
        st.sampled_from(CONTENTION_MODELS),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=120, deadline=None)
    def check(node_arr, pattern, contention, seed):
        if pattern.name == "alltoall":
            node_arr = node_arr[:1024]
        topo = topology()
        n_leaves = topo.n_leaves
        unique_nodes = np.unique(node_arr).size == node_arr.size
        plan = pattern_plan(pattern, int(node_arr.size))
        run_of = topo.leaf_of_node[node_arr] if unique_nodes else node_arr
        with mock.patch.object(
            leafpair, "_run_candidates", wraps=leafpair._run_candidates
        ) as spy:
            src, dst, offsets = leafpair._candidates(plan, leafpair.run_bounds(run_of))
        took_run_route.append(spy.called)

        # each paired step's candidates, once their intra-node pairs are
        # dropped, must name exactly the step's set of leaf pairs
        got = {}
        ends = list(offsets[1:]) + [src.size]
        for step, lo, hi in zip(plan.paired, offsets, ends):
            a, b = node_arr[src[lo:hi]], node_arr[dst[lo:hi]]
            keep = a != b
            la, lb = topo.leaf_of_node[a[keep]], topo.leaf_of_node[b[keep]]
            got[id(step)] = np.unique(np.minimum(la, lb) * n_leaves + np.maximum(la, lb))
        for i, step in enumerate(plan.steps):
            want = brute_force_leaf_pairs(step, node_arr, topo.leaf_of_node, n_leaves)
            assert np.array_equal(got.get(id(step), want[:0]), want), (pattern, i)

        state = background_state(seed)
        model = CostModel(contention=contention)
        assert model.allocation_cost(state, node_arr, pattern) == (
            model.allocation_cost_pairwise(state, node_arr, pattern)
        )

    check()
    assert any(took_run_route), "no drawn layout took the run route"
