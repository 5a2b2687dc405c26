"""Eq. 6 of multi-take placements on the paper's machines, bit for bit.

The kernel prices takes without sorting its candidates: each
candidate's value is evaluated from its two leaves, and a step's
maximum comes from one ``np.maximum.reduceat``. These properties pin it to
the per-pair reference ``CostModel.allocation_cost_pairwise`` with
``==``, on half-occupied ``theta_like`` and ``mira_like`` states, for
every registered pattern, both contention models and both
``weight_by_msize`` values, over takes of 2 to 96 leaves; and the
node-id kernel the same way on ``srun`` layouts of the gathered nodes,
which repeat node ids. Both candidate routes must be taken by some
draw.
"""

from functools import lru_cache
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterState, JobKind, Takes
from repro.cost import CostModel, leafpair
from repro.cost.contention import ContentionModel
from repro.distribution import block_distribution, cyclic_distribution
from repro.patterns import Stencil2D, get_pattern, pattern_names
from repro.topology import mira_like, theta_like

PATTERNS = [get_pattern(name) for name in pattern_names()] + [Stencil2D(periodic=True)]

CONTENTION_MODELS = (
    ContentionModel(),
    ContentionModel(uplink_discount=0.5, per_level=True),
)

MACHINES = {"theta": theta_like, "mira": mira_like}


@lru_cache(maxsize=None)
def base_state(machine, seed):
    """Per-leaf random comm and compute load, about half the machine."""
    topo = MACHINES[machine]()
    rng = np.random.default_rng(seed)
    draw = rng.random(topo.n_nodes)
    p_comm = rng.random(topo.n_leaves)[topo.leaf_of_node] * 0.5
    state = ClusterState(topo)
    comm = np.flatnonzero(draw < p_comm)
    compute = np.flatnonzero((draw >= p_comm) & (draw < p_comm + 0.2))
    state.allocate(1, comm, JobKind.COMM)
    state.allocate(2, compute, JobKind.COMPUTE)
    return state


def test_multi_take_kernel_matches_the_per_pair_reference():
    routes = {"runs": 0, "pairs": 0}

    @given(
        st.sampled_from(sorted(MACHINES)),
        st.integers(min_value=0, max_value=2),
        st.sampled_from(PATTERNS),
        st.sampled_from(CONTENTION_MODELS),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def check(machine, seed, pattern, contention, weight_by_msize, data):
        base = base_state(machine, seed)
        free_leaves = np.flatnonzero(base.leaf_free > 0).tolist()
        n_takes = data.draw(
            st.one_of(st.integers(2, 16), st.integers(64, min(96, len(free_leaves))))
        )
        leaves = data.draw(st.permutations(free_leaves))[:n_takes]
        # whole leaves give long runs (Mira's take the run route);
        # alltoall's reference is O(P^2), so it keeps a few ranks a take
        counts = []
        for leaf in leaves:
            full = min(int(base.leaf_free[leaf]), 2 if pattern.name == "alltoall" else 360)
            counts.append(data.draw(st.one_of(st.just(full), st.integers(1, full))))
        takes = Takes(leaves, counts)
        model = CostModel(weight_by_msize=weight_by_msize, contention=contention)
        view = base.comm_overlay(takes, JobKind.COMM)
        trial = base.copy()
        nodes = trial.allocate(9, takes, JobKind.COMM)
        plan = leafpair.pattern_plan(pattern, takes.n_nodes)
        routes["runs" if plan.run_route(n_takes) else "pairs"] += 1
        priced = model.allocation_cost(view, takes, pattern)
        assert priced == model.allocation_cost_pairwise(trial, nodes, pattern)
        assert model.allocation_cost(trial, takes, pattern) == priced

        # srun layouts over the same nodes repeat node ids
        tasks = data.draw(st.integers(1, 4))
        layout = data.draw(st.sampled_from([block_distribution, cyclic_distribution]))
        ranks = layout(nodes[: max(1, 512 // tasks)], tasks)
        if pattern.name == "alltoall":
            ranks = ranks[:96]
        assert model.allocation_cost(trial, ranks, pattern) == (
            model.allocation_cost_pairwise(trial, ranks, pattern)
        )

    check()
    assert routes["runs"] and routes["pairs"], routes


def test_plans_keep_their_tables_only_while_recently_used():
    """At most ``_TABLE_PLANS_MAX`` plans hold built rank-pair or block
    tables and at most ``_PLAN_CACHE_MAX`` plans are kept; a plan whose
    tables were dropped builds them again and prices the same."""
    base = base_state("theta", 0)
    leaves = np.flatnonzero(base.leaf_free >= 4)[:12]
    model = CostModel()
    pattern = get_pattern("rhvd")

    def price(n_takes):
        takes = Takes(leaves[:n_takes], [4] * n_takes)
        trial = base.copy()
        nodes = trial.allocate(9, takes, JobKind.COMM)
        cost = model.allocation_cost(trial, takes, pattern)
        assert cost == model.allocation_cost_pairwise(trial, nodes, pattern)
        return cost

    def built():
        return [
            plan
            for plan in leafpair._PLANS.values()
            if plan._pairs is not leafpair._UNBUILT or plan._blocks is not leafpair._UNBUILT
        ]

    leafpair.clear_leaf_pair_cache()
    with mock.patch.object(leafpair, "_TABLE_PLANS_MAX", 3), mock.patch.object(
        leafpair, "_PLAN_CACHE_MAX", 5
    ):
        first = price(2)
        first_plan = leafpair.pattern_plan(pattern, 8)
        assert first_plan._blocks is not leafpair._UNBUILT
        for n_takes in range(3, 12):
            price(n_takes)
            assert len(built()) <= 3
            assert len(leafpair._PLANS) <= 5
            assert set(leafpair._TABLE_PLANS) <= set(leafpair._PLANS.values())
        assert first_plan._blocks is leafpair._UNBUILT
        assert price(2) == first
    leafpair.clear_leaf_pair_cache()
