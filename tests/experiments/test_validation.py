"""Tests for the cost-model validation experiment."""

import numpy as np
import pytest

from repro.experiments.validation import (
    _spearman,
    _structured_placements,
    run_cost_model_validation,
)


class TestSpearman:
    def test_monotone_is_one(self):
        assert _spearman(np.array([1.0, 2, 3, 4]), np.array([10.0, 20, 30, 40])) == 1.0

    def test_reversed_is_minus_one(self):
        assert _spearman(np.array([1.0, 2, 3]), np.array([3.0, 2, 1])) == -1.0

    def test_nonlinear_monotone_still_one(self):
        x = np.array([1.0, 2, 3, 4])
        assert _spearman(x, np.exp(x)) == 1.0


class TestStructuredPlacements:
    def test_gradient_of_busy_overlap(self):
        rng = np.random.default_rng(0)
        busy = np.arange(0, 16)
        quiet = np.arange(16, 48)
        placements = _structured_placements(rng, busy, quiet, 8, 5)
        overlaps = [sum(1 for n in p if n < 16) for p in placements]
        assert overlaps == sorted(overlaps)
        assert overlaps[0] == 0
        assert overlaps[-1] == 8

    def test_each_placement_correct_size(self):
        rng = np.random.default_rng(1)
        placements = _structured_placements(
            rng, np.arange(0, 10), np.arange(10, 30), 6, 7
        )
        for p in placements:
            assert len(p) == 6
            assert len(set(p)) == 6


class TestRunValidation:
    @pytest.fixture(scope="class")
    def result(self):
        # small but real run: 10 placements across the gradient
        return run_cost_model_validation(n_placements=10, seed=0)

    def test_strong_correlation(self, result):
        assert result.pearson > 0.5
        assert result.spearman > 0.4

    def test_models_agree_on_extremes(self, result):
        """The placement Eq. 6 prices cheapest must actually run faster
        than the one it prices dearest."""
        i_min = int(np.argmin(result.costs))
        i_max = int(np.argmax(result.costs))
        assert result.durations[i_min] < result.durations[i_max]

    def test_render(self, result):
        out = result.render()
        assert "Pearson" in out and "0.830" in out

    def test_too_few_placements(self):
        with pytest.raises(ValueError):
            run_cost_model_validation(n_placements=2)
