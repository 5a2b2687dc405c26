"""Tests for ClusterState bookkeeping."""

import numpy as np
import pytest

from repro.cluster import ClusterState, JobKind, Takes
from repro.topology import tree_from_leaf_sizes, two_level_tree


@pytest.fixture
def state():
    return ClusterState(two_level_tree(2, 4))


class TestAllocateRelease:
    def test_initial_all_free(self, state):
        assert state.total_free == 8
        assert state.leaf_free.tolist() == [4, 4]
        assert state.leaf_comm.tolist() == [0, 0]

    def test_allocate_updates_counters(self, state):
        state.allocate(1, [0, 1, 4], JobKind.COMM)
        assert state.leaf_free.tolist() == [2, 3]
        assert state.leaf_comm.tolist() == [2, 1]
        assert state.leaf_busy.tolist() == [2, 1]
        state.validate()

    def test_compute_job_does_not_touch_comm(self, state):
        state.allocate(1, [0, 1], JobKind.COMPUTE)
        assert state.leaf_comm.tolist() == [0, 0]
        state.validate()

    def test_release_restores(self, state):
        state.allocate(1, [0, 1, 4], JobKind.COMM)
        state.release(1)
        assert state.total_free == 8
        assert state.leaf_comm.tolist() == [0, 0]
        state.validate()

    def test_double_allocate_same_id_rejected(self, state):
        state.allocate(1, [0], JobKind.COMPUTE)
        with pytest.raises(ValueError, match="already running"):
            state.allocate(1, [1], JobKind.COMPUTE)

    def test_allocate_busy_node_rejected(self, state):
        state.allocate(1, [0], JobKind.COMPUTE)
        with pytest.raises(ValueError, match="busy"):
            state.allocate(2, [0], JobKind.COMPUTE)

    def test_out_of_range_node_rejected(self, state):
        with pytest.raises(ValueError, match="out of range"):
            state.allocate(1, [99], JobKind.COMPUTE)

    def test_empty_allocation_rejected(self, state):
        with pytest.raises(ValueError, match="at least one"):
            state.allocate(1, [], JobKind.COMPUTE)

    def test_release_unknown_job(self, state):
        with pytest.raises(KeyError):
            state.release(42)

    def test_duplicate_node_ids_rejected(self, state):
        """A duplicate id would silently shrink the allocation if it were
        deduplicated — it is always an allocator bug, so it raises."""
        with pytest.raises(ValueError, match="duplicate"):
            state.allocate(1, [0, 0, 1], JobKind.COMPUTE)
        # the failed call must not leave partial bookkeeping behind
        assert state.total_free == 8
        state.validate()


class TestQueries:
    def test_free_nodes_on_leaf_lowest_ids(self, state):
        state.allocate(1, [0, 2], JobKind.COMPUTE)
        assert state.copy().allocate(2, Takes([0], [2]), JobKind.COMM).tolist() == [1, 3]
        assert state.allocate(2, Takes([0], [1]), JobKind.COMM).tolist() == [1]

    def test_free_nodes_count_too_large(self, state):
        with pytest.raises(ValueError, match="can give 4 nodes, takes ask 5"):
            state.allocate(1, Takes([0], [5]), JobKind.COMPUTE)

    def test_subtree_free(self):
        topo = tree_from_leaf_sizes([4, 4, 4])
        st = ClusterState(topo)
        st.allocate(1, [0, 1, 4], JobKind.COMPUTE)
        assert st.subtree_free(topo.root) == 9
        assert st.subtree_free(topo.switch("s0")) == 2

    def test_communication_ratio_idle_leaf_is_zero(self, state):
        ratios = state.communication_ratio()
        assert ratios.tolist() == [0.0, 0.0]

    def test_communication_ratio_eq1(self, state):
        """Eq. 1: L_comm/L_busy + L_busy/L_nodes."""
        state.allocate(1, [0, 1], JobKind.COMM)    # leaf 0: comm=2 busy=2
        state.allocate(2, [4], JobKind.COMPUTE)    # leaf 1: comm=0 busy=1
        ratios = state.communication_ratio()
        assert ratios[0] == pytest.approx(2 / 2 + 2 / 4)
        assert ratios[1] == pytest.approx(0 / 1 + 1 / 4)

    def test_communication_ratio_subset(self, state):
        state.allocate(1, [0], JobKind.COMM)
        sub = state.communication_ratio(np.array([1]))
        assert sub.tolist() == [0.0]

    def test_leaf_comm_share(self, state):
        state.allocate(1, [0, 1, 4], JobKind.COMM)
        assert state.leaf_comm_share().tolist() == [0.5, 0.25]


class TestCopy:
    def test_copy_is_independent(self, state):
        state.allocate(1, [0], JobKind.COMM)
        clone = state.copy()
        clone.allocate(2, [1], JobKind.COMM)
        assert state.total_free == 7
        assert clone.total_free == 6
        assert 2 not in state.running
        state.validate()
        clone.validate()

    def test_copy_preserves_running(self, state):
        state.allocate(1, [0, 4], JobKind.COMM)
        clone = state.copy()
        assert clone.running[1].nodes.tolist() == [0, 4]


class TestValidate:
    def test_detects_counter_drift(self, state):
        state.allocate(1, [0], JobKind.COMM)
        state.leaf_comm[0] = 0  # corrupt
        with pytest.raises(AssertionError):
            state.validate()

    def test_detects_node_state_drift(self, state):
        state.allocate(1, [0], JobKind.COMPUTE)
        state.node_state[1] = 1  # busy without owner
        with pytest.raises(AssertionError):
            state.validate()


class TestMultiTakeGather:
    def test_gather_returns_take_order_and_record_ascends(self):
        state = ClusterState(tree_from_leaf_sizes([4, 4, 4]))
        state.allocate(1, [1, 9], JobKind.COMPUTE)
        nodes = state.allocate(2, Takes([2, 0], [2, 3]), JobKind.COMM)
        assert nodes.tolist() == [8, 10, 0, 2, 3]
        assert state.running[2].nodes.tolist() == [0, 2, 3, 8, 10]
        state.validate()

    def test_mask_drift_raises_before_mutating(self):
        state = ClusterState(tree_from_leaf_sizes([4, 4, 4]))
        state.allocatable[5] = False  # leaf 1 counts 4 allocatable, the mask 3
        version = state.version
        with pytest.raises(AssertionError, match="drifted from leaf_free on leaf 1"):
            state.allocate(1, Takes([2, 1], [1, 4]), JobKind.COMM)
        assert state.version == version
        assert 1 not in state.running


def test_node_and_availability_states_export_from_the_package():
    """Every NODE_* and AVAIL_* constant of ``repro.cluster.state`` is
    importable from ``repro.cluster`` under the same value."""
    import repro.cluster
    from repro.cluster import state as state_module

    names = [n for n in state_module.__all__ if n.startswith(("NODE_", "AVAIL_"))]
    assert "NODE_IO" in names
    for name in names:
        assert name in repro.cluster.__all__, name
        assert getattr(repro.cluster, name) == getattr(state_module, name), name
