"""Batched release (PR 9 same-tick event batching) equals sequential release."""

import numpy as np
import pytest

from repro.cluster import ClusterState, JobKind
from repro.topology import tree_from_leaf_sizes


def make_state():
    state = ClusterState(tree_from_leaf_sizes([4, 4, 2, 6]))
    state.allocate(1, [0, 1, 4], JobKind.COMM)
    state.allocate(2, [2, 3], JobKind.COMPUTE)
    state.allocate(3, [5, 6, 7, 8], JobKind.COMM)
    state.allocate(4, [9], JobKind.COMM)
    state.allocate(5, [10, 11, 12], JobKind.COMPUTE)
    return state


def counters(state):
    return {
        "node_state": state.node_state.tolist(),
        "node_job": state.node_job.tolist(),
        "leaf_free": state.leaf_free.tolist(),
        "leaf_busy": state.leaf_busy.tolist(),
        "leaf_comm": state.leaf_comm.tolist(),
        "running": sorted(state.running),
    }


@pytest.mark.parametrize("ids", [[1], [1, 3], [1, 3, 4], [1, 2, 3, 4, 5]])
def test_release_many_matches_sequential(ids):
    batched = make_state()
    sequential = make_state()
    recs = batched.release_many(ids)
    for job_id in ids:
        sequential.release(job_id)
    assert counters(batched) == counters(sequential)
    assert [r.job_id for r in recs] == ids
    batched.validate()


def test_release_many_rejects_repeated_ids():
    state = make_state()
    before = counters(state)
    with pytest.raises(ValueError, match="job 1 "):
        state.release_many([1, 1, 2])
    assert counters(state) == before
    state.validate()


def test_release_many_empty_is_noop():
    state = make_state()
    before = counters(state)
    assert state.release_many([]) == []
    assert counters(state) == before


def test_release_many_unknown_id_mutates_nothing():
    state = make_state()
    before = counters(state)
    with pytest.raises(KeyError):
        state.release_many([1, 99])
    assert counters(state) == before


def test_release_many_returns_allocation_records():
    state = make_state()
    recs = state.release_many([2, 4])
    assert np.array_equal(recs[0].nodes, np.array([2, 3]))
    assert np.array_equal(recs[1].nodes, np.array([9]))


def test_release_many_bumps_version_once():
    state = make_state()
    v0 = state.version
    state.release_many([1, 3, 5])
    assert state.version == v0 + 1
