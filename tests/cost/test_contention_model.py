"""Tests for the generalized contention model (§7 other-topologies item)."""

import numpy as np
import pytest

from repro.cluster import ClusterState, JobKind
from repro.cost import ContentionModel, CostModel, contention_factor, contention_factor_scalar
from repro.cost.hops import effective_hops
from repro.patterns import RecursiveDoubling
from repro.topology import three_level_tree


@pytest.fixture
def state(paper_topology):
    s = ClusterState(paper_topology)
    s.allocate(1, [0, 1, 4, 5], JobKind.COMM)
    s.allocate(2, [2, 3], JobKind.COMM)
    return s


class TestDefaults:
    def test_default_matches_paper_value(self, state):
        """Default ContentionModel must reproduce the worked 1.875."""
        assert float(contention_factor(state, 0, 4)) == pytest.approx(1.875)
        assert float(
            contention_factor(state, 0, 4, ContentionModel())
        ) == pytest.approx(1.875)

    def test_invalid_discount(self):
        with pytest.raises(ValueError):
            ContentionModel(uplink_discount=1.5)


class TestDiscountVariants:
    def test_plain_tree_discount_one(self, state):
        """uplink_discount=1.0: the common switch counts in full."""
        c = float(contention_factor(state, 0, 4, ContentionModel(uplink_discount=1.0)))
        assert c == pytest.approx(1.0 + 0.5 + 6 / 8)

    def test_zero_discount_drops_shared_term(self, state):
        c = float(contention_factor(state, 0, 4, ContentionModel(uplink_discount=0.0)))
        assert c == pytest.approx(1.5)

    def test_same_leaf_unaffected(self, state):
        for discount in (0.0, 0.5, 1.0):
            c = float(
                contention_factor(state, 0, 1, ContentionModel(uplink_discount=discount))
            )
            assert c == pytest.approx(1.0)

    def test_scalar_agrees_with_vector(self, state):
        model = ContentionModel(uplink_discount=0.3)
        for i, j in ((0, 4), (0, 1), (2, 7)):
            assert float(contention_factor(state, i, j, model)) == pytest.approx(
                contention_factor_scalar(state, i, j, model)
            )


class TestPerLevel:
    def test_deeper_lca_gets_smaller_weight(self):
        """On a 3-level tree, pairs meeting at the root see a squared
        discount; cross-pod contention is cheaper than cross-leaf."""
        topo = three_level_tree(2, 2, 4)  # 16 nodes
        s = ClusterState(topo)
        s.allocate(1, list(range(16)), JobKind.COMM)
        model = ContentionModel(uplink_discount=0.5, per_level=True)
        # nodes 0,4: same pod (LCA level 2) -> weight 0.5
        # nodes 0,12: cross pod (LCA level 3) -> weight 0.25
        same_pod = contention_factor_scalar(s, 0, 4, model)
        cross_pod = contention_factor_scalar(s, 0, 12, model)
        # per-leaf terms are equal (uniform occupancy); only the shared
        # term differs
        assert cross_pod < same_pod

    def test_per_level_matches_flat_at_level_two(self, state):
        flat = ContentionModel(uplink_discount=0.5, per_level=False)
        lvl = ContentionModel(uplink_discount=0.5, per_level=True)
        # two-level tree: every cross pair has LCA level 2 -> 0.5^1
        assert contention_factor_scalar(state, 0, 4, flat) == pytest.approx(
            contention_factor_scalar(state, 0, 4, lvl)
        )

    def test_vectorized_per_level(self):
        topo = three_level_tree(2, 2, 4)
        s = ClusterState(topo)
        s.allocate(1, list(range(16)), JobKind.COMM)
        model = ContentionModel(per_level=True)
        i = np.array([0, 0, 0])
        j = np.array([1, 4, 12])
        vec = contention_factor(s, i, j, model)
        ref = [contention_factor_scalar(s, 0, int(b), model) for b in (1, 4, 12)]
        assert np.allclose(vec, ref)


class TestCostModelIntegration:
    def test_cost_model_carries_contention(self, state):
        hot = CostModel(contention=ContentionModel(uplink_discount=1.0))
        cold = CostModel(contention=ContentionModel(uplink_discount=0.0))
        nodes = [0, 1, 4, 5]
        assert hot.allocation_cost(state, nodes, RecursiveDoubling()) > (
            cold.allocation_cost(state, nodes, RecursiveDoubling())
        )

    def test_effective_hops_with_model(self, state):
        h = float(effective_hops(state, 0, 4, ContentionModel(uplink_discount=0.0)))
        assert h == pytest.approx(4 * (1 + 1.5))
