"""Tests for CommStep, the pattern ABC helpers, and the registry."""

import numpy as np
import pytest

from repro.patterns import (
    CommStep,
    PATTERN_FACTORIES,
    fold_to_power_of_two,
    get_pattern,
    pairs_array,
    pattern_names,
    register_pattern,
)
from repro.patterns.base import CommunicationPattern


class TestCommStep:
    def test_pairs_normalized_to_array(self):
        step = CommStep([(0, 1), (2, 3)])
        assert step.pairs.shape == (2, 2)
        assert step.pairs.dtype == np.int64

    def test_empty_pairs_allowed(self):
        assert CommStep([]).n_pairs == 0

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            CommStep(np.zeros((3, 3), dtype=np.int64))

    def test_nonpositive_msize_rejected(self):
        with pytest.raises(ValueError):
            CommStep([(0, 1)], msize=0)

    def test_zero_repeat_rejected(self):
        with pytest.raises(ValueError):
            CommStep([(0, 1)], repeat=0)

    def test_blocks_expand_to_pairs_sorted_by_source(self):
        # XOR-2 on 8 ranks, then a wrap block whose sources interleave
        step = CommStep(blocks=[(0, 8, 2, 4, 2)])
        assert step.pairs.tolist() == [[0, 2], [1, 3], [4, 6], [5, 7]]
        assert step.blocks.shape == (1, 5)
        ring = CommStep(blocks=[(0, 6, 1, 3, 2), (2, 6, -2, 3, 1)])
        assert ring.pairs.tolist() == [
            [0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3],
        ]

    def test_explicit_pairs_carry_no_blocks(self):
        assert CommStep([(0, 1)]).blocks is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"pairs": [(0, 1)], "blocks": [(0, 1, 1, 1, 1)]},
            {"blocks": [(0, 4, 1, 2, 3)]},  # width > period
            {"blocks": [(3, 2, 1, 1, 1)]},  # stop < start
            {"blocks": [(0, 4, 1, 0, 0)]},  # period 0
            {"blocks": [(0, 4, 1, 1)]},  # four columns
        ],
    )
    def test_bad_blocks_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CommStep(**kwargs)


class TestPairsArray:
    def test_empty(self):
        assert pairs_array([]).shape == (0, 2)

    def test_list_of_tuples(self):
        assert pairs_array([(1, 2)]).tolist() == [[1, 2]]


class TestFoldToPowerOfTwo:
    def test_power_of_two_no_extras(self):
        p2, src, dst = fold_to_power_of_two(8)
        assert p2 == 8 and src.size == 0 and dst.size == 0

    def test_six_folds_two(self):
        p2, src, dst = fold_to_power_of_two(6)
        assert p2 == 4
        assert src.tolist() == [4, 5]
        assert dst.tolist() == [0, 1]

    def test_one(self):
        assert fold_to_power_of_two(1)[0] == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            fold_to_power_of_two(0)


class TestValidateSteps:
    def test_out_of_range_detected(self):
        class Bad(CommunicationPattern):
            name = "bad"

            def steps(self, nranks):
                return [CommStep([(0, nranks)])]  # dst out of range

        with pytest.raises(ValueError, match="outside"):
            Bad().validate_steps(4)


class TestRegistry:
    def test_all_paper_patterns_present(self):
        assert {"rd", "rhvd", "binomial"} <= set(pattern_names())

    def test_future_work_patterns_present(self):
        assert {"ring", "stencil2d"} <= set(pattern_names())

    def test_get_pattern_name_matches(self):
        for name in pattern_names():
            assert get_pattern(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown pattern"):
            get_pattern("fft")

    def test_register_custom(self):
        class Custom(CommunicationPattern):
            name = "custom-test"

            def steps(self, nranks):
                return []

        register_pattern("custom-test", Custom)
        try:
            assert isinstance(get_pattern("custom-test"), Custom)
        finally:
            del PATTERN_FACTORIES["custom-test"]

    def test_register_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_pattern("", lambda: None)

    def test_total_pair_count(self):
        assert get_pattern("rd").total_pair_count(8) == 12  # 3 steps x 4 pairs
        assert get_pattern("ring").total_pair_count(8) == 56  # 8 pairs x 7 repeats
