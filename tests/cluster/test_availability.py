"""ClusterState availability mask: UP/DOWN/DRAINING semantics."""

import numpy as np
import pytest

from repro.cluster import (
    AVAIL_DOWN,
    AVAIL_DRAINING,
    AVAIL_UP,
    ClusterState,
    JobKind,
    Takes,
)
from repro.topology import two_level_tree


@pytest.fixture
def state():
    return ClusterState(two_level_tree(n_leaves=2, nodes_per_leaf=4))


class TestMarkDown:
    def test_down_nodes_leave_the_free_pool(self, state):
        state.mark_down([0, 1])
        assert state.leaf_free.tolist() == [2, 4]
        assert state.leaf_offline.tolist() == [2, 0]
        assert state.total_free == 6
        assert state.total_down == 2

    def test_leaf_busy_excludes_offline_nodes(self, state):
        state.allocate(1, [4, 5], JobKind.COMM)
        state.mark_down([0, 1])
        assert state.leaf_busy.tolist() == [0, 2]
        assert state.total_busy == 2

    def test_returns_only_newly_transitioned(self, state):
        assert state.mark_down([0, 1]).tolist() == [0, 1]
        assert state.mark_down([1, 2]).tolist() == [2]

    def test_refuses_occupied_nodes(self, state):
        state.allocate(1, [0, 1], JobKind.COMPUTE)
        with pytest.raises(ValueError, match="occupied"):
            state.mark_down([1])

    def test_draining_node_can_go_down(self, state):
        state.mark_drain([3])
        state.mark_down([3])
        assert state.node_avail[3] == AVAIL_DOWN

    def test_validate_passes_after_transitions(self, state):
        state.allocate(1, [4, 5], JobKind.COMM)
        state.mark_down([0, 1])
        state.mark_drain([2])
        state.validate()


class TestMarkDrainAndUp:
    def test_drain_allows_occupied_nodes(self, state):
        state.allocate(1, [0, 1], JobKind.COMPUTE)
        assert state.mark_drain([0, 1, 2]).tolist() == [0, 1, 2]
        assert state.node_avail[0] == AVAIL_DRAINING
        # occupied nodes stay busy; only the free one leaves the pool
        assert state.leaf_free.tolist() == [1, 4]
        assert state.leaf_busy.tolist() == [2, 0]

    def test_released_draining_node_goes_offline_not_free(self, state):
        state.allocate(1, [0, 1], JobKind.COMPUTE)
        state.mark_drain([0, 1])
        state.release(1)
        assert state.leaf_free.tolist() == [2, 4]
        assert state.leaf_offline.tolist() == [2, 0]
        state.validate()

    def test_up_restores_the_free_pool(self, state):
        state.mark_down([0, 1])
        state.mark_drain([2])
        assert state.mark_up([0, 1, 2, 3]).tolist() == [0, 1, 2]
        assert state.leaf_free.tolist() == [4, 4]
        assert state.leaf_offline.tolist() == [0, 0]
        assert np.all(state.node_avail == AVAIL_UP)

    def test_up_on_busy_draining_node_keeps_it_busy(self, state):
        state.allocate(1, [0], JobKind.COMPUTE)
        state.mark_drain([0])
        state.mark_up([0])
        assert state.leaf_free.tolist() == [3, 4]
        state.release(1)
        assert state.leaf_free.tolist() == [4, 4]


class TestAllocationRespectsAvailability:
    def test_free_nodes_on_leaf_skips_non_up(self, state):
        state.mark_down([0])
        state.mark_drain([1])
        assert state.leaf_free[0] == 2
        assert state.allocate(1, Takes([0], [2]), JobKind.COMPUTE).tolist() == [2, 3]

    def test_allocate_refuses_down_nodes(self, state):
        state.mark_down([2])
        with pytest.raises(ValueError, match="unavailable"):
            state.allocate(1, [2, 3], JobKind.COMPUTE)

    def test_comm_overlay_refuses_down_nodes(self, state):
        state.mark_down([2])
        # leaf 0 has three UP nodes left, so it cannot give four
        with pytest.raises(ValueError, match="can give 3 nodes"):
            state.comm_overlay(Takes([0], [4]), JobKind.COMM)
        state.comm_overlay(Takes([0], [3]), JobKind.COMM)

    def test_jobs_on_reports_holders(self, state):
        state.allocate(7, [0, 1], JobKind.COMPUTE)
        state.allocate(9, [4], JobKind.COMM)
        assert state.jobs_on([1, 4]) == [7, 9]
        assert state.jobs_on([2, 3]) == []


class TestVersionAndCopy:
    def test_every_transition_bumps_version(self, state):
        v = state.version
        for action in (
            lambda: state.mark_down([0]),
            lambda: state.mark_drain([1]),
            lambda: state.mark_up([0, 1]),
        ):
            action()
            assert state.version > v
            v = state.version

    def test_no_op_transition_does_not_bump(self, state):
        state.mark_down([0])
        v = state.version
        assert state.mark_down([0]).size == 0
        assert state.version == v

    def test_copy_preserves_availability(self, state):
        state.mark_down([0])
        state.mark_drain([5])
        clone = state.copy()
        assert clone.node_avail.tolist() == state.node_avail.tolist()
        assert clone.leaf_offline.tolist() == state.leaf_offline.tolist()
        clone.mark_up([0])
        assert state.node_avail[0] == AVAIL_DOWN  # independent arrays

    def test_validate_rejects_running_job_on_down_node(self, state):
        state.allocate(1, [0, 1], JobKind.COMPUTE)
        # bypass mark_down's occupancy check to corrupt the state
        state.node_avail[0] = AVAIL_DOWN
        with pytest.raises(AssertionError, match="DOWN"):
            state.validate()
