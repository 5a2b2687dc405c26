"""Version-tagged cache correctness: invalidation, copies, overlays.

The Eq. 6 kernel memoizes the per-leaf contention-share vector and
finished cost totals on the state, keyed by its version counter. These
tests pin the invalidation contract: every mutation drops the caches, a
copy starts cold, and an overlay never writes into a base whose version
has moved on.
"""

import numpy as np
import pytest

from repro.cluster import ClusterState, CommOverlay, JobKind, Takes
from repro.cluster.state import _COST_CACHE_MAX
from repro.cost import CostModel
from repro.patterns import RecursiveDoubling
from repro.topology import two_level_tree


@pytest.fixture
def state():
    return ClusterState(two_level_tree(4, 4))


class TestVersionCounter:
    def test_allocate_bumps_version(self, state):
        v0 = state.version
        state.allocate(1, [0, 1], JobKind.COMM)
        assert state.version == v0 + 1

    def test_release_bumps_version(self, state):
        state.allocate(1, [0, 1], JobKind.COMM)
        v1 = state.version
        state.release(1)
        assert state.version == v1 + 1

    def test_failed_allocate_does_not_bump(self, state):
        v0 = state.version
        with pytest.raises(ValueError):
            state.allocate(1, [0, 0], JobKind.COMM)
        with pytest.raises(ValueError):
            state.allocate(1, [999], JobKind.COMM)
        assert state.version == v0


class TestDerivedCache:
    def test_comm_share_cached_between_mutations(self, state):
        state.allocate(1, [0, 1], JobKind.COMM)
        assert state.leaf_comm_share() is state.leaf_comm_share()

    def test_comm_share_recomputed_after_allocate(self, state):
        before = state.leaf_comm_share()
        state.allocate(1, [0, 1], JobKind.COMM)
        after = state.leaf_comm_share()
        assert after is not before
        assert after[0] == 0.5

    def test_comm_share_recomputed_after_release(self, state):
        state.allocate(1, [0, 1], JobKind.COMM)
        assert state.leaf_comm_share()[0] == 0.5
        state.release(1)
        assert state.leaf_comm_share()[0] == 0.0

    def test_comm_share_is_read_only(self, state):
        with pytest.raises(ValueError):
            state.leaf_comm_share()[0] = 1.0


class TestCostCache:
    def test_roundtrip(self, state):
        state.cost_cache_put("k", 1.5)
        assert state.cost_cache_get("k") == 1.5
        assert state.cost_cache_get("other") is None

    def test_cleared_on_allocate_and_release(self, state):
        state.cost_cache_put("k", 1.5)
        state.allocate(1, [0], JobKind.COMPUTE)
        assert state.cost_cache_get("k") is None
        state.cost_cache_put("k", 2.5)
        state.release(1)
        assert state.cost_cache_get("k") is None

    def test_capped(self, state):
        for i in range(_COST_CACHE_MAX):
            state.cost_cache_put(i, float(i))
        state.cost_cache_put("overflow", 1.0)
        assert state.cost_cache_get(0) is None
        assert state.cost_cache_get("overflow") == 1.0

    def test_no_stale_cost_after_mutation(self, state):
        """The memoized Eq. 6 total must not survive a contention change."""
        model = CostModel()
        nodes = np.arange(2, 6)  # spans leaves 0 and 1
        state.allocate(1, nodes, JobKind.COMM)
        quiet = model.allocation_cost(state, nodes, RecursiveDoubling())
        state.allocate(2, [0, 1], JobKind.COMM)  # more contention on leaf 0
        noisy = model.allocation_cost(state, nodes, RecursiveDoubling())
        assert noisy > quiet
        state.release(2)
        assert model.allocation_cost(state, nodes, RecursiveDoubling()) == quiet


class TestCopyIsolation:
    def test_copy_starts_cold_and_does_not_leak(self, state):
        model = CostModel()
        nodes = np.arange(2, 6)  # spans leaves 0 and 1
        state.allocate(1, nodes, JobKind.COMM)
        base_cost = model.allocation_cost(state, nodes, RecursiveDoubling())
        clone = state.copy()
        assert clone.version == state.version
        clone.allocate(2, [0, 1], JobKind.COMM)
        clone_cost = model.allocation_cost(clone, nodes, RecursiveDoubling())
        assert clone_cost > base_cost
        # the base's cached entry is untouched and still correct
        assert model.allocation_cost(state, nodes, RecursiveDoubling()) == base_cost

    def test_shares_through_copy_are_independent(self, state):
        state.allocate(1, [0, 1], JobKind.COMM)
        state.leaf_comm_share()
        clone = state.copy()
        clone.allocate(2, [2, 3], JobKind.COMM)
        assert state.leaf_comm_share()[0] == 0.5
        assert clone.leaf_comm_share()[0] == 1.0


class TestCommOverlay:
    def test_overlay_prices_like_copy_allocate(self, state):
        """The cheap view must be numerically identical to the full
        snapshot-and-allocate it replaces."""
        model = CostModel()
        state.allocate(1, [0, 1], JobKind.COMM)
        takes = Takes([1, 0], [4, 2])
        view = state.comm_overlay(takes, JobKind.COMM)
        trial = state.copy()
        nodes = trial.allocate(99, takes, JobKind.COMM)
        assert nodes.tolist() == [4, 5, 6, 7, 2, 3]
        assert view.leaf_comm.tolist() == trial.leaf_comm.tolist()
        assert model.allocation_cost(view, takes, RecursiveDoubling()) == (
            model.allocation_cost(trial, nodes, RecursiveDoubling())
        )

    def test_compute_overlay_adds_no_contention(self, state):
        view = state.comm_overlay(Takes([0], [2]), JobKind.COMPUTE)
        assert view.leaf_comm.tolist() == state.leaf_comm.tolist()

    def test_validation_mirrors_allocate(self, state):
        state.allocate(1, [0], JobKind.COMPUTE)
        bad = [
            (Takes([1, 1], [1, 1]), "repeat a leaf"),
            (Takes([0], [4]), "can give 3 nodes"),
            (Takes([0], [0]), "can give 3 nodes, takes ask 0"),
            (Takes([999], [1]), "outside"),
            (Takes([], []), "at least one"),
        ]
        for takes, message in bad:
            with pytest.raises(ValueError, match=message):
                state.comm_overlay(takes, JobKind.COMM)
            with pytest.raises(ValueError, match=message):
                state.allocate(2, takes, JobKind.COMM)
        state.validate()

    def test_shares_base_cache_while_unmutated(self, state):
        model = CostModel()
        takes = Takes([1], [4])
        first = state.comm_overlay(takes, JobKind.COMM)
        cost = model.allocation_cost(first, takes, RecursiveDoubling())
        # a second overlay over the same hypothetical hits the shared entry
        second = state.comm_overlay(Takes([1], [4]), JobKind.COMM)
        key = (CostModel(), RecursiveDoubling(), takes.key)
        assert second.cost_cache_get(key) == cost

    def test_stale_overlay_does_not_write_base_cache(self, state):
        model = CostModel()
        takes = Takes([1], [4])
        view = state.comm_overlay(takes, JobKind.COMM)
        state.allocate(1, [0, 1], JobKind.COMM)  # base moves on
        entries_before = dict(state._cost_cache)
        cost = model.allocation_cost(view, takes, RecursiveDoubling())
        assert dict(state._cost_cache) == entries_before
        # the view's captured counters predate the mutation, so its price
        # matches a snapshot taken at capture time
        frozen = ClusterState(state.topology)
        nodes = frozen.allocate(99, takes, JobKind.COMM)
        assert cost == model.allocation_cost(frozen, nodes, RecursiveDoubling())

    def test_exported_from_package(self):
        assert CommOverlay is not None
