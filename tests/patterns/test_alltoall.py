"""Tests for the pairwise-exchange alltoall pattern."""

import pytest

from repro.patterns import get_pattern
from repro.patterns.alltoall import PairwiseAlltoall


@pytest.fixture
def a2a():
    return PairwiseAlltoall()


class TestPowerOfTwo:
    def test_p_minus_one_steps(self, a2a):
        assert len(a2a.steps(8)) == 7

    def test_xor_partners(self, a2a):
        for k, step in enumerate(a2a.steps(8), start=1):
            for src, dst in step.pairs:
                assert dst == src ^ k

    def test_every_rank_active_every_step(self, a2a):
        for step in a2a.steps(16):
            assert len(set(step.pairs.ravel().tolist())) == 16

    def test_every_pair_exchanges_exactly_once(self, a2a):
        """Alltoall correctness: each unordered pair appears in exactly
        one step across the whole algorithm."""
        seen = set()
        for step in a2a.steps(8):
            for src, dst in step.pairs:
                key = (min(src, dst), max(src, dst))
                assert key not in seen
                seen.add(key)
        assert len(seen) == 8 * 7 // 2

    def test_block_msize(self, a2a):
        assert all(s.msize == pytest.approx(1 / 8) for s in a2a.steps(8))

    def test_steps_marked_exchange(self, a2a):
        assert all(s.exchange for s in a2a.steps(8))


class TestGeneralP:
    def test_rotation_partners(self, a2a):
        for k, step in enumerate(a2a.steps(5), start=1):
            for src, dst in step.pairs:
                assert dst == (src + k) % 5

    def test_each_rank_sends_to_everyone(self, a2a):
        sends = {i: set() for i in range(6)}
        for step in a2a.steps(6):
            for src, dst in step.pairs:
                sends[int(src)].add(int(dst))
        for i, dsts in sends.items():
            assert dsts == set(range(6)) - {i}

    def test_single_rank(self, a2a):
        assert a2a.steps(1) == []

    def test_validate_range(self, a2a):
        for p in (2, 3, 7, 8, 12):
            a2a.validate_steps(p)


class TestRegistry:
    def test_registered(self):
        assert get_pattern("alltoall").name == "alltoall"

    def test_total_volume_matches_alltoall(self):
        """Each rank moves (P-1)/P of a vector in total."""
        p = 8
        total = sum(s.msize for s in get_pattern("alltoall").steps(p))
        assert total == pytest.approx((p - 1) / p)
