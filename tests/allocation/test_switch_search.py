"""The lowest-level switch search against its per-switch reference loop.

:func:`~repro.allocation.base.find_lowest_level_switch` skips every
level whose largest switch is smaller than the request, answers a
request above ``total_free`` at once, evaluates the levels below the
root from the free-count prefix sum, and answers with the root, which
spans every leaf and so holds ``total_free``, when none of them holds
the request. These properties pin it to
:func:`~repro.allocation.base.find_lowest_level_switch_reference`:

* on every ``TOPOLOGY_BUILDERS`` tree, on random trees, and on parsed
  unbalanced ``topology.conf`` files (a root with a leaf child beside
  its inner switches, and a level whose one switch does not span every
  leaf), under random occupancy with DOWN and DRAINING nodes;
* for requests that fit a leaf, only an inner switch, only the root, or
  nothing, with ties broken on the lowest switch index.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.base import find_lowest_level_switch, find_lowest_level_switch_reference
from repro.cluster import ClusterState, JobKind
from repro.cluster.state import NODE_FREE
from repro.topology import parse_topology_conf, random_tree, three_level_tree
from repro.topology.builders import TOPOLOGY_BUILDERS

#: leaves listed before their parents; the root has a leaf child (solo)
#: beside two inner switches
ROOT_WITH_LEAF = """\
SwitchName=zeta Nodes=z[0-2]
SwitchName=alpha Nodes=a[0-4]
SwitchName=mid Nodes=m[0-1]
SwitchName=pod2 Switches=alpha,zeta
SwitchName=pod1 Switches=mid
SwitchName=top Switches=pod2,pod1,solo
SwitchName=solo Nodes=s[0-6]
"""

#: level 2 holds one switch, pod, which does not span the leaf solo
LONE_POD = """\
SwitchName=a Nodes=a[0-3]
SwitchName=b Nodes=b[0-3]
SwitchName=pod Switches=a,b
SwitchName=solo Nodes=s[0-5]
SwitchName=top Switches=pod,solo
"""

TREES = dict(
    TOPOLOGY_BUILDERS,
    **{f"random-{seed}": (lambda seed=seed: random_tree(seed)) for seed in range(12)},
    **{
        "root-with-leaf.conf": lambda: parse_topology_conf(ROOT_WITH_LEAF),
        "lone-pod.conf": lambda: parse_topology_conf(LONE_POD),
    },
)


@lru_cache(maxsize=None)
def tree(name):
    return TREES[name]()


def occupied(topo, seed):
    """Per-leaf random busy share, then DOWN and DRAINING nodes on top.

    Busy nodes are split between a COMM and a COMPUTE job; some busy
    nodes and some idle ones go DRAINING, and some idle ones DOWN.
    """
    rng = np.random.default_rng(seed)
    state = ClusterState(topo)
    p_busy = rng.random(topo.n_leaves)[topo.leaf_of_node]
    draw = rng.random(topo.n_nodes)
    busy = np.flatnonzero(draw < p_busy)
    if busy.size:
        half = busy.size // 2
        if half:
            state.allocate(1, busy[:half], JobKind.COMM)
        state.allocate(2, busy[half:], JobKind.COMPUTE)
    state.mark_drain(np.flatnonzero(rng.random(topo.n_nodes) < 0.05))
    idle = np.flatnonzero(state.node_state == NODE_FREE)
    state.mark_down(idle[rng.random(idle.size) < 0.05])
    state.validate()
    return state


def subtree_frees(state):
    """Free count of every switch, by level (level 1 = leaves)."""
    topo = state.topology
    return {
        level: [state.subtree_free(s) for s in topo.switches_at_level(level)]
        for level in range(1, topo.height + 1)
    }


def request_kinds(state):
    """Requests per outcome: a leaf, only an inner switch, only the root, nothing."""
    topo = state.topology
    frees = subtree_frees(state)
    leaf_max = max(frees[1])
    inner_max = max((f for lvl in range(2, topo.height) for f in frees[lvl]), default=0)
    total = state.total_free
    kinds = {"nothing": [total + 1, total + 7]}
    if leaf_max:
        kinds["leaf"] = [1, leaf_max] + [f for f in frees[1] if f]
    if inner_max > leaf_max:
        kinds["inner"] = [leaf_max + 1, inner_max]
    if total > max(inner_max, leaf_max):
        kinds["root"] = [max(inner_max, leaf_max) + 1, total]
    return kinds


def test_outcomes_on_every_tree_match_the_reference():
    seen = set()

    @given(st.sampled_from(sorted(TREES)), st.integers(0, 2**16), st.data())
    @settings(max_examples=150, deadline=None)
    def check(name, seed, data):
        state = occupied(tree(name), seed)
        kinds = request_kinds(state)
        kind = data.draw(st.sampled_from(sorted(kinds)))
        request = data.draw(st.sampled_from(kinds[kind]))
        want = find_lowest_level_switch_reference(state, request)
        got = find_lowest_level_switch(state, request)
        assert got == want, (name, kind, request)
        # the memoized answer of the same state version is the same
        assert find_lowest_level_switch(state, request) == want
        if want is not None and kind != "nothing":
            assert (kind == "leaf") == want.is_leaf
            assert (kind == "root") == (want == state.topology.root)
        seen.add(kind)

    check()
    assert seen == {"leaf", "inner", "root", "nothing"}


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_request_size_matches_the_reference(name):
    topo = tree(name)
    for seed in range(3):
        state = occupied(topo, seed)
        kinds = request_kinds(state)
        sizes = sorted({n for values in kinds.values() for n in values})
        sizes += [f for level in subtree_frees(state).values() for f in level if f]
        for request in sorted(set(sizes)):
            assert find_lowest_level_switch(state, request) == (
                find_lowest_level_switch_reference(state, request)
            ), (name, seed, request)


def test_a_lone_switch_that_misses_a_leaf_is_not_read_from_total_free():
    """pod is the only level-2 switch but does not span solo: a request
    that only the root can hold must not stop at pod."""
    state = ClusterState(parse_topology_conf(LONE_POD))
    topo = state.topology
    leaf_a = topo.leaf_names.index("a")
    state.allocate(1, topo.leaf_nodes(leaf_a)[:2], JobKind.COMPUTE)
    # a: 2 free, b: 4, solo: 6; pod holds 6, the root 12
    pod = topo.switch("pod")
    assert state.subtree_free(pod) == 6
    for request, want in ((6, "solo"), (7, "top"), (12, "top"), (13, None)):
        got = find_lowest_level_switch(state, request)
        assert got == find_lowest_level_switch_reference(state, request)
        assert (got.name if got else None) == want, request
    state.mark_down(topo.leaf_nodes(topo.leaf_names.index("solo"))[:1])
    # solo now gives 5: the 6-node request fits pod, not a leaf
    assert find_lowest_level_switch(state, 6) == pod


def test_inner_ties_break_on_the_lowest_switch_index():
    state = ClusterState(three_level_tree(n_pods=3, leaves_per_pod=2, nodes_per_leaf=4))
    topo = state.topology
    # every leaf keeps 3 free, every pod 6: a 5-node request fits each pod
    for leaf in range(topo.n_leaves):
        state.allocate(100 + leaf, topo.leaf_nodes(leaf)[:1], JobKind.COMPUTE)
    pods = topo.switches_at_level(2)
    assert find_lowest_level_switch(state, 5) == pods[0]
    # pod 0 now holds 5 free: still the best fit
    state.allocate(1, topo.leaf_nodes(0)[1:2], JobKind.COMPUTE)
    assert find_lowest_level_switch(state, 5) == pods[0]
    # pod 0 too small, pods 1 and 2 tie at 6: the lower index wins
    state.allocate(2, topo.leaf_nodes(1)[1:2], JobKind.COMPUTE)
    assert find_lowest_level_switch(state, 5) == pods[1]
    assert find_lowest_level_switch(state, 5) == find_lowest_level_switch_reference(state, 5)


def test_level_capacity_is_the_largest_switch_of_the_level():
    for name in sorted(TREES):
        topo = tree(name)
        for level in range(1, topo.height + 1):
            caps = [s.capacity for s in topo.switches_at_level(level)]
            assert topo.level_capacity(level) == max(caps, default=0), (name, level)
        assert topo.level_capacity(topo.height + 1) == 0
