"""Property tests: availability invariants under random faults.

The central safety property of the fault subsystem: *no allocator ever
hands out a node that is not UP*, on any topology, under any
availability mask — because ``leaf_free`` only counts allocatable
(free AND UP) nodes, every allocator inherits fault-safety from the
state, not from fault-specific logic. The cost-model property pins the
PR 1 cache contract across availability transitions: the cached
leaf-pair kernel and the uncached pairwise reference must agree
*bitwise* even as down/up transitions churn the version counter.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import AllocationError, get_allocator
from repro.cluster import AVAIL_UP, ClusterState, JobKind
from repro.cluster.state import NODE_FREE
from repro.cluster.job import Job
from repro.cost import CostModel
from repro.patterns import get_pattern
from repro.topology.random import random_tree

ALLOCATORS = ("default", "greedy", "balanced", "adaptive", "linear")


@st.composite
def faulted_states(draw):
    """A random topology with random occupancy and a random fault mask."""
    topo = random_tree(draw(st.integers(min_value=0, max_value=10_000)))
    state = ClusterState(topo)
    n = topo.n_nodes
    # random occupancy: a few jobs over random disjoint node sets
    order = draw(st.permutations(range(n)))
    n_busy = draw(st.integers(min_value=0, max_value=n // 2))
    busy, job_id = list(order[:n_busy]), 1
    while busy:
        take = draw(st.integers(min_value=1, max_value=len(busy)))
        kind = draw(st.sampled_from([JobKind.COMPUTE, JobKind.COMM, JobKind.IO]))
        state.allocate(job_id, busy[:take], kind)
        busy, job_id = busy[take:], job_id + 1
    # random fault mask over the *free* nodes (mark_down refuses busy ones)
    free = [i for i in order[n_busy:]]
    n_down = draw(st.integers(min_value=0, max_value=len(free)))
    if n_down:
        state.mark_down(free[:n_down])
    n_drain = draw(st.integers(min_value=0, max_value=len(free) - n_down))
    if n_drain:
        state.mark_drain(free[n_down:n_down + n_drain])
    return state


@given(faulted_states(), st.integers(min_value=1, max_value=64), st.data())
@settings(max_examples=120, deadline=None)
def test_no_allocator_returns_a_non_up_node(state, raw_nodes, data):
    state.validate()
    if state.total_free == 0:
        return
    want = min(raw_nodes, state.total_free)
    job = Job(job_id=999, submit_time=0.0, nodes=want, runtime=10.0)
    for name in ALLOCATORS:
        try:
            takes = get_allocator(name).allocate(state, job)
        except AllocationError:
            continue  # a legal refusal; never a bad placement
        nodes = state.copy().allocate(job.job_id, takes, JobKind.COMPUTE)
        assert len(nodes) == want
        assert np.all(state.node_avail[nodes] == AVAIL_UP), (
            f"{name} allocated a non-UP node: {nodes.tolist()} "
            f"avail={state.node_avail[nodes].tolist()}"
        )
        assert np.all(state.node_state[nodes] == NODE_FREE), f"{name} reused a busy node"


@given(faulted_states(), st.sampled_from(["rd", "rhvd", "binomial"]), st.data())
@settings(max_examples=80, deadline=None)
def test_cost_kernel_exact_across_availability_transitions(state, pattern_name, data):
    """allocation_cost == allocation_cost_pairwise, bitwise, after churn."""
    if state.total_free < 2:
        return
    pattern = get_pattern(pattern_name)
    model = CostModel()
    job = Job(job_id=999, submit_time=0.0,
              nodes=min(8, state.total_free), runtime=10.0)
    takes = get_allocator("greedy").allocate(state, job)
    nodes = state.allocate(999, takes, JobKind.COMM)
    assert model.allocation_cost(state, nodes, pattern) == \
        model.allocation_cost_pairwise(state, nodes, pattern)
    assert model.allocation_cost(state, takes, pattern) == \
        model.allocation_cost_pairwise(state, nodes, pattern)
    # churn availability (version bumps, caches cleared), re-check exactly
    free_up = [i for i in range(state.topology.n_nodes)
               if state.node_state[i] == NODE_FREE and state.node_avail[i] == AVAIL_UP]
    if free_up:
        flip = data.draw(st.lists(st.sampled_from(free_up), min_size=1,
                                  max_size=min(4, len(free_up)), unique=True))
        state.mark_down(flip)
        assert model.allocation_cost(state, nodes, pattern) == \
            model.allocation_cost_pairwise(state, nodes, pattern)
        state.mark_up(flip)
        assert model.allocation_cost(state, nodes, pattern) == \
            model.allocation_cost_pairwise(state, nodes, pattern)


@given(st.integers(min_value=0, max_value=10_000), st.data())
@settings(max_examples=100, deadline=None)
def test_every_availability_change_bumps_the_version(seed, data):
    topo = random_tree(seed)
    state = ClusterState(topo)
    n_ops = data.draw(st.integers(min_value=1, max_value=12))
    for _ in range(n_ops):
        op = data.draw(st.sampled_from(["down", "drain", "up"]))
        nodes = data.draw(st.lists(
            st.integers(min_value=0, max_value=topo.n_nodes - 1),
            min_size=1, max_size=4, unique=True,
        ))
        before = state.version
        changed = getattr(state, f"mark_{op}")(nodes)
        if changed.size:
            assert state.version > before, f"mark_{op} changed nodes silently"
        else:
            assert state.version == before, f"no-op mark_{op} bumped the version"
        state.validate()
