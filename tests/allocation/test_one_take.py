"""One-take placements: the scalar branch of every placement consumer.

A request one leaf switch can hold is placed by a single take, and
:attr:`~repro.cluster.state.Takes.single` sends it down a scalar branch
in the state, the overlay, the switch search and Eq. 6. These
properties pin each branch to the vectorized path or a written-out
reference, on random occupancy with DOWN and DRAINING nodes:

* one-take ``allocate`` gathers the lowest allocatable ids of the leaf
  (``lowest_allocatable_loop``), and ``release`` restores every
  counter, also when nodes of the job went DRAINING while it ran;
* the closed-form Eq. 6 of one leaf equals the leaf-pair kernel and
  the per-pair reference bit for bit, for every registered pattern and
  every rank count up to the leaf size, and skips the steps of a
  custom pattern that have no inter-rank pair, as the kernel does;
* the leaf-level switch search equals the per-switch reference loop,
  including requests no leaf (or nothing) can hold;
* level-1 switch ``k`` is leaf ``k`` on every topology, the identity
  the leaf-level search relies on.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.base import find_lowest_level_switch, find_lowest_level_switch_reference
from repro.cluster import ClusterState, JobKind, Takes
from repro.cost import CostModel, leafpair
from repro.cost import model as cost_model
from repro.cost.contention import ContentionModel
from repro.patterns import CommStep, CommunicationPattern, Stencil2D, get_pattern, pattern_names
from repro.topology import parse_topology_conf, random_tree, three_level_tree
from repro.topology.builders import TOPOLOGY_BUILDERS

from .test_takes import KINDS, churned_states, lowest_allocatable_loop

PATTERNS = [get_pattern(name) for name in pattern_names()] + [Stencil2D(periodic=True)]

CONTENTION_MODELS = (
    ContentionModel(),
    ContentionModel(uplink_discount=0.5, per_level=True),
)


def counters(state):
    """Every array and count a mutation moves, as comparable lists."""
    return {
        name: getattr(state, name).tolist()
        for name in (
            "node_state", "node_avail", "node_job", "allocatable",
            "leaf_free", "leaf_offline", "leaf_comm", "leaf_io",
        )
    } | {"n_draining": state.n_draining, "total_free": state.total_free}


@given(churned_states(), st.sampled_from(KINDS), st.booleans(), st.data())
@settings(max_examples=120, deadline=None)
def test_one_take_allocate_and_release(state, kind, drain_during, data):
    open_leaves = np.flatnonzero(state.leaf_free > 0).tolist()
    if not open_leaves:
        return
    leaf = data.draw(st.sampled_from(open_leaves))
    count = data.draw(st.integers(1, int(state.leaf_free[leaf])))
    takes = Takes([leaf], [count])
    assert takes.single == (leaf, count)
    expected = lowest_allocatable_loop(state, takes)
    before = counters(state)

    nodes = state.allocate(7, takes, kind)
    assert nodes.tolist() == expected
    assert state.running[7].nodes.tolist() == expected
    state.validate()

    if drain_during:
        # a node of the job goes DRAINING while it runs: release must park
        # it offline, not hand it back as allocatable
        drained = data.draw(st.sampled_from(expected))
        state.mark_drain([drained])
        state.release(7)
        state.validate()
        assert not state.allocatable[drained]
        state.mark_up([drained])
        state.validate()
        assert counters(state) == before
    else:
        state.release(7)
        state.validate()
        assert counters(state) == before


@given(churned_states(), st.data())
@settings(max_examples=60, deadline=None)
def test_one_take_overlay_matches_allocation(state, data):
    open_leaves = np.flatnonzero(state.leaf_free > 0).tolist()
    if not open_leaves:
        return
    leaf = data.draw(st.sampled_from(open_leaves))
    takes = Takes([leaf], [data.draw(st.integers(1, int(state.leaf_free[leaf])))])
    view = state.comm_overlay(takes, JobKind.COMM)
    trial = state.copy()
    trial.allocate(3, takes, JobKind.COMM)
    assert view.leaf_comm.tolist() == trial.leaf_comm.tolist()


def pricing_state(seed):
    """A 3-leaf-per-pod tree with random COMM and COMPUTE load, some nodes down."""
    topo = three_level_tree(n_pods=2, leaves_per_pod=3, nodes_per_leaf=16)
    rng = np.random.default_rng(seed)
    state = ClusterState(topo)
    draw = rng.random(topo.n_nodes)
    comm = np.flatnonzero(draw < 0.3)
    compute = np.flatnonzero((draw >= 0.3) & (draw < 0.45))
    state.allocate(1, comm, JobKind.COMM)
    state.allocate(2, compute, JobKind.COMPUTE)
    state.mark_drain(comm[:2].tolist())
    state.mark_down(np.flatnonzero(draw > 0.95).tolist())
    return state


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: repr(p))
def test_one_leaf_eq6_closed_form_is_bit_identical(pattern):
    for seed in (0, 1):
        state = pricing_state(seed)
        topo = state.topology
        for leaf in range(topo.n_leaves):
            leaf_nodes = topo.leaf_nodes(leaf)
            for weight in (True, False):
                for contention in CONTENTION_MODELS:
                    model = CostModel(weight_by_msize=weight, contention=contention)
                    for n in range(1, int(topo.leaf_sizes[leaf]) + 1):
                        takes = Takes([leaf], [n])
                        with mock.patch.object(
                            cost_model, "leaf_pair_cost", wraps=leafpair.leaf_pair_cost
                        ) as spy:
                            closed = model.allocation_cost(state, takes, pattern)
                        assert not spy.called
                        kernel = leafpair.leaf_pair_cost(
                            state,
                            np.full(n, leaf, dtype=np.int64),
                            leafpair.pattern_plan(pattern, n),
                            contention,
                            weight,
                        )
                        pairwise = model.allocation_cost_pairwise(
                            state, leaf_nodes[:n], pattern
                        )
                        assert closed == kernel == pairwise, (seed, leaf, weight, n)
                        assert type(closed) is float


class SelfPairSteps(CommunicationPattern):
    """A custom pattern with a step of rank-equal pairs and an empty one."""

    name = "self-pair-steps"

    def steps(self, nranks):
        ranks = range(nranks)
        return [
            CommStep(pairs=[(r, r) for r in ranks], msize=4.0),
            CommStep(pairs=[]),
            CommStep(pairs=[(r, (r + 1) % nranks) for r in ranks], msize=2.0, repeat=3),
        ]


def test_one_leaf_eq6_skips_steps_without_an_inter_rank_pair():
    state = pricing_state(3)
    pattern = SelfPairSteps()
    for weight in (True, False):
        model = CostModel(weight_by_msize=weight)
        for n in range(2, 17):
            closed = model.allocation_cost(state, Takes([2], [n]), pattern)
            kernel = leafpair.leaf_pair_cost(
                state,
                np.full(n, 2, dtype=np.int64),
                leafpair.pattern_plan(pattern, n),
                model.contention,
                weight,
            )
            nodes = state.topology.leaf_nodes(2)[:n]
            assert closed == kernel == model.allocation_cost_pairwise(state, nodes, pattern)


def test_one_leaf_eq6_on_an_overlay_and_cached():
    state = pricing_state(2)
    pattern = get_pattern("rhvd")
    model = CostModel()
    takes = Takes([4], [int(state.leaf_free[4])])
    view = state.comm_overlay(takes, JobKind.COMM)
    trial = state.copy()
    nodes = trial.allocate(9, takes, JobKind.COMM)
    priced = model.allocation_cost(view, takes, pattern)
    assert priced > 0
    assert priced == model.allocation_cost_pairwise(trial, nodes, pattern)
    assert model.allocation_cost(trial, takes, pattern) == priced
    # the second pricing of the same takes on the same version is a cache hit
    with mock.patch.object(CostModel, "_one_leaf_cost") as spy:
        assert model.allocation_cost(trial, takes, pattern) == priced
    assert not spy.called


@given(churned_states(), st.data())
@settings(max_examples=150, deadline=None)
def test_leaf_level_search_matches_reference(state, data):
    topo = state.topology
    # past the largest leaf (only an inner switch can hold it) and past the
    # machine (nothing can), as well as requests a leaf holds
    request = data.draw(
        st.one_of(
            st.integers(1, int(topo.leaf_sizes.max())),
            st.integers(int(topo.leaf_sizes.max()) + 1, topo.n_nodes + 4),
        )
    )
    fast = find_lowest_level_switch(state, request)
    slow = find_lowest_level_switch_reference(state, request)
    assert fast == slow


def test_leaf_level_search_tie_breaks_on_the_lowest_leaf():
    state = ClusterState(three_level_tree(n_pods=2, leaves_per_pod=3, nodes_per_leaf=8))
    state.allocate(1, [8, 9, 10, 24, 25, 26], JobKind.COMPUTE)
    # leaves 1 and 3 both have 5 free, the best fit for a 4-node request
    assert find_lowest_level_switch(state, 4) == state.topology.leaf(1)
    assert find_lowest_level_switch(state, 4) == find_lowest_level_switch_reference(state, 4)


CONF = """\
# leaves listed before their parents, names out of order
SwitchName=zeta Nodes=z[0-2]
SwitchName=alpha Nodes=a[0-4]
SwitchName=mid Nodes=m[0-1]
SwitchName=pod2 Switches=alpha,zeta
SwitchName=pod1 Switches=mid
SwitchName=top Switches=pod2,pod1,solo
SwitchName=solo Nodes=s[0-6]
"""


TOPOLOGIES = dict(
    TOPOLOGY_BUILDERS,
    **{f"random-{seed}": (lambda seed=seed: random_tree(seed)) for seed in range(8)},
    **{"topology.conf": lambda: parse_topology_conf(CONF)},
)


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_level_one_switch_k_is_leaf_k(name):
    topo = TOPOLOGIES[name]()
    level_one = topo.switches_at_level(1)
    assert len(level_one) == topo.n_leaves
    for k, switch in enumerate(level_one):
        assert (switch.leaf_lo, switch.leaf_hi) == (k, k + 1)
        assert topo.leaf(k) is switch
        assert switch.name == topo.leaf_names[k]
