"""Binomial tree (MPI_Bcast / MPI_Reduce; paper §3.3).

Broadcast from rank 0: at step ``k`` every rank ``i < 2^k`` that already
holds the data sends it to rank ``i + 2^k``. The number of simultaneous
transfers doubles each step; the message size stays constant. A
reduction runs the same pairs in reverse step order, which is identical
under the per-step max-hops cost model, so one pattern covers both.

Non-power-of-two counts need no special embedding: the last step simply
drops pairs whose destination exceeds ``nranks - 1``.
"""

from __future__ import annotations

from typing import List

from .base import CommStep, CommunicationPattern
from .._validation import require_positive_int

__all__ = ["BinomialTree"]


class BinomialTree(CommunicationPattern):
    """Binomial broadcast/reduce tree rooted at rank 0."""

    name = "binomial"

    def steps(self, nranks: int) -> List[CommStep]:
        """Binomial-tree schedule: log2(P) rounds of doubling senders."""
        require_positive_int(nranks, "nranks")
        out: List[CommStep] = []
        dist = 1
        while dist < nranks:
            # senders 0..dist-1, minus those whose receiver would be >= P
            out.append(
                CommStep(blocks=[(0, min(dist, nranks - dist), dist, 1, 1)], msize=1.0)
            )
            dist *= 2
        return out
