"""Recursive doubling / halving (paper Figure 3; MPI_Allreduce).

At step ``k`` (0-based), rank ``i`` exchanges the full message with rank
``i XOR 2^k``; there are ``log2(P)`` steps and the message size stays
constant. Recursive *halving* traverses the same partner sequence in the
opposite distance order, so for the per-step max-hops cost model the two
are equivalent — the paper accordingly reports them as one pattern "RD".

Non-power-of-two rank counts use the standard MPICH embedding: the
surplus ranks fold their data into a power-of-two core in a pre-step,
the core runs the algorithm, and a post-step unfolds the result.
"""

from __future__ import annotations

from typing import List

from .base import CommStep, CommunicationPattern, fold_to_power_of_two

__all__ = ["RecursiveDoubling"]


class RecursiveDoubling(CommunicationPattern):
    """Pairwise-exchange recursive doubling (constant message size)."""

    name = "rd"

    def steps(self, nranks: int) -> List[CommStep]:
        """Recursive-doubling schedule: partners at distance 2^s."""
        p2, extra_src, _ = fold_to_power_of_two(nranks)
        rem = extra_src.size
        out: List[CommStep] = []
        if rem:
            out.append(CommStep(blocks=[(p2, nranks, -p2, 1, 1)], msize=1.0))
        dist = 1
        while dist < p2:
            # rank r < r ^ dist (bit clear) lists each exchange once
            out.append(
                CommStep(blocks=[(0, p2, dist, 2 * dist, dist)], msize=1.0, exchange=True)
            )
            dist *= 2
        if rem:
            out.append(CommStep(blocks=[(0, rem, p2, 1, 1)], msize=1.0))
        return out
