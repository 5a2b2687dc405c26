"""Tests for the contention factor (paper Eqs. 2 and 3)."""

import numpy as np
import pytest

from repro.cluster import ClusterState, JobKind
from repro.cost import contention_factor, contention_factor_scalar
from repro.topology import tree_from_leaf_sizes


class TestPaperWorkedExample:
    """Figure 5: Job1 on n0,n1,n4,n5; Job2 on n2,n3; n6,n7 free."""

    def test_same_leaf(self, figure5_state):
        assert float(contention_factor(figure5_state, 0, 1)) == pytest.approx(1.0)

    def test_cross_leaf(self, figure5_state):
        assert float(contention_factor(figure5_state, 0, 4)) == pytest.approx(1.875)

    def test_scalar_reference_agrees(self, figure5_state):
        assert contention_factor_scalar(figure5_state, 0, 1) == pytest.approx(1.0)
        assert contention_factor_scalar(figure5_state, 0, 4) == pytest.approx(1.875)


class TestProperties:
    def test_empty_cluster_zero_contention(self, paper_topology):
        state = ClusterState(paper_topology)
        assert float(contention_factor(state, 0, 4)) == 0.0

    def test_symmetry(self, figure5_state):
        rng = np.random.default_rng(1)
        i = rng.integers(0, 8, 30)
        j = rng.integers(0, 8, 30)
        a = contention_factor(figure5_state, i, j)
        b = contention_factor(figure5_state, j, i)
        assert np.allclose(a, b)

    def test_compute_jobs_do_not_contend(self, paper_topology):
        state = ClusterState(paper_topology)
        state.allocate(1, [0, 1, 2, 3], JobKind.COMPUTE)
        assert float(contention_factor(state, 0, 1)) == 0.0
        assert float(contention_factor(state, 0, 4)) == 0.0

    def test_cross_leaf_at_least_each_side(self, figure5_state):
        """Eq. 3 adds the two per-leaf terms plus an uplink term."""
        state = figure5_state
        share = state.leaf_comm_share()
        c = float(contention_factor(state, 0, 4))
        assert c >= share[0] + share[1]

    def test_vectorized_matches_scalar_randomized(self):
        topo = tree_from_leaf_sizes([3, 7, 5, 2])
        state = ClusterState(topo)
        state.allocate(1, [0, 3, 4, 10], JobKind.COMM)
        state.allocate(2, [5, 6], JobKind.COMPUTE)
        state.allocate(3, [15, 16], JobKind.COMM)
        rng = np.random.default_rng(2)
        i = rng.integers(0, topo.n_nodes, 100)
        j = rng.integers(0, topo.n_nodes, 100)
        vec = contention_factor(state, i, j)
        ref = [contention_factor_scalar(state, int(a), int(b)) for a, b in zip(i, j)]
        assert np.allclose(vec, ref)

    def test_broadcasting(self, figure5_state):
        out = contention_factor(figure5_state, 0, np.array([1, 4]))
        assert out.shape == (2,)
