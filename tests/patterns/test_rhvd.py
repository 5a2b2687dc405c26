"""Tests for recursive halving with vector doubling (MPI_Allgather)."""

import pytest

from repro.patterns import RecursiveHalvingVectorDoubling


@pytest.fixture
def rhvd():
    return RecursiveHalvingVectorDoubling()


class TestStructure:
    def test_step_count_log2(self, rhvd):
        assert len(rhvd.steps(16)) == 4

    def test_msize_doubles_each_step(self, rhvd):
        """§5.3: 'msize doubles in the case of vector doubling algorithms'."""
        msizes = [s.msize for s in rhvd.steps(16)]
        assert msizes == [1 / 16, 2 / 16, 4 / 16, 8 / 16]
        for a, b in zip(msizes, msizes[1:]):
            assert b == 2 * a

    def test_distance_halves_each_step(self, rhvd):
        for p in (8, 32):
            for k, step in enumerate(rhvd.steps(p)):
                expected = p >> (k + 1)
                for src, dst in step.pairs:
                    assert abs(dst - src) == expected

    def test_total_volume_is_allgather(self, rhvd):
        """Total bytes per rank: (P-1)/P of the final vector."""
        p = 64
        total = sum(s.msize for s in rhvd.steps(p))
        assert total == pytest.approx((p - 1) / p)

    def test_each_step_has_half_pairs(self, rhvd):
        for step in rhvd.steps(32):
            assert step.n_pairs == 16

    def test_same_partner_set_as_rd_reversed(self, rhvd):
        """RHVD visits the same XOR partner distances as RD, reversed."""
        from repro.patterns import RecursiveDoubling

        rd_steps = RecursiveDoubling().steps(16)
        rh_steps = rhvd.steps(16)
        rd_pairs = [frozenset(map(tuple, s.pairs)) for s in rd_steps]
        rh_pairs = [frozenset(map(tuple, s.pairs)) for s in rh_steps]
        assert rh_pairs == rd_pairs[::-1]


class TestNonPowerOfTwo:
    def test_validate(self, rhvd):
        for p in (3, 5, 6, 12, 100):
            rhvd.validate_steps(p)

    def test_single_rank(self, rhvd):
        assert rhvd.steps(1) == []

    def test_two_ranks(self, rhvd):
        steps = rhvd.steps(2)
        assert len(steps) == 1
        assert steps[0].msize == 0.5
