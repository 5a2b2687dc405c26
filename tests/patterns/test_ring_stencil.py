"""Tests for the §7 future-work patterns: ring and 2-D stencil."""

import pytest

from repro.patterns import Ring, Stencil2D, square_factorization


class TestRing:
    def test_single_step_with_repeat(self):
        steps = Ring().steps(8)
        assert len(steps) == 1
        assert steps[0].repeat == 7

    def test_all_ranks_send_to_successor(self):
        step = Ring().steps(5)[0]
        assert {tuple(p) for p in step.pairs} == {
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 0)
        }

    def test_msize_is_block(self):
        assert Ring().steps(8)[0].msize == pytest.approx(1 / 8)

    def test_total_steps_via_repeat(self):
        assert Ring().n_steps(16) == 15

    def test_single_rank(self):
        assert Ring().steps(1) == []

    def test_two_ranks(self):
        steps = Ring().steps(2)
        assert steps[0].repeat == 1
        assert steps[0].n_pairs == 2


class TestSquareFactorization:
    @pytest.mark.parametrize(
        "n,expected", [(1, (1, 1)), (4, (2, 2)), (12, (4, 3)), (16, (4, 4)), (7, (7, 1))]
    )
    def test_known_values(self, n, expected):
        assert square_factorization(n) == expected

    def test_product_invariant(self):
        for n in range(1, 200):
            px, py = square_factorization(n)
            assert px * py == n and px >= py


class TestStencil2D:
    def test_four_direction_steps(self):
        steps = Stencil2D().steps(16)  # 4x4 grid
        assert len(steps) == 4

    def test_non_periodic_edge_ranks_skip(self):
        # 4x4 grid: each direction has 12 sends (one row/col has no partner)
        for step in Stencil2D().steps(16):
            assert step.n_pairs == 12

    def test_periodic_all_ranks_send(self):
        for step in Stencil2D(periodic=True).steps(16):
            assert step.n_pairs == 16

    def test_neighbors_are_grid_adjacent(self):
        px, py = square_factorization(12)
        for step in Stencil2D().steps(12):
            for src, dst in step.pairs:
                sx, sy = src % px, src // px
                dx, dy = dst % px, dst // px
                assert abs(sx - dx) + abs(sy - dy) == 1

    def test_degenerate_1d_periodic(self):
        # 2x1 grid, periodic: vertical steps vanish
        steps = Stencil2D(periodic=True).steps(2)
        assert all(s.n_pairs in (0, 2) for s in steps)
        Stencil2D(periodic=True).validate_steps(2)

    def test_single_rank(self):
        assert Stencil2D().steps(1) == []

    def test_equality_respects_periodic(self):
        assert Stencil2D() == Stencil2D()
        assert Stencil2D() != Stencil2D(periodic=True)
