"""Recursive halving with vector doubling (MPI_Allgather; paper "RHVD").

The partner *distance* halves every step (``P/2, P/4, ..., 1``) while
the exchanged *vector* doubles (§5.3: "msize doubles in the case of
vector doubling algorithms"). With a final gathered vector of relative
size 1, step ``k`` of ``log2(P)`` exchanges ``2^k / P`` of it, starting
from each rank's ``1/P`` contribution.

Compared to RD, every step moves data between *different-sized* blocks
of the rank space, so an unbalanced node allocation forces more
inter-switch traffic in the large-message late steps — which is exactly
why the paper finds RHVD benefits more from balanced allocation (§6.1).
"""

from __future__ import annotations

from typing import List

from .base import CommStep, CommunicationPattern, fold_to_power_of_two

__all__ = ["RecursiveHalvingVectorDoubling"]


class RecursiveHalvingVectorDoubling(CommunicationPattern):
    """Halving partner distance, doubling message size per step."""

    name = "rhvd"

    def steps(self, nranks: int) -> List[CommStep]:
        """Recursive-halving schedule with message size doubling per step."""
        p2, extra_src, _ = fold_to_power_of_two(nranks)
        rem = extra_src.size
        out: List[CommStep] = []
        if rem:
            out.append(
                CommStep(blocks=[(p2, nranks, -p2, 1, 1)], msize=1.0 / max(nranks, 1))
            )
        n_steps = int(p2).bit_length() - 1
        for k in range(n_steps):
            dist = p2 >> (k + 1)  # P/2, P/4, ..., 1
            msize = (1 << k) / p2  # 1/P, 2/P, ..., 1/2
            out.append(
                CommStep(blocks=[(0, p2, dist, 2 * dist, dist)], msize=msize, exchange=True)
            )
        if rem:
            out.append(CommStep(blocks=[(0, rem, p2, 1, 1)], msize=1.0))
        return out
