"""Pairwise-exchange all-to-all (MPI_Alltoall).

The paper's introduction names MPI_Alltoall as the dominant collective
of FFTW and CPMD (§1, §3.3 citing [21]); large-message alltoall in
MPICH uses the *pairwise exchange* algorithm: for ``k = 1..P-1``, rank
``i`` exchanges one ``1/P``-sized block with rank ``i XOR k`` (P a
power of two) or ``(i + k) mod P`` (general P). Every step saturates
all ranks, which makes alltoall the most placement-sensitive collective
of the set — there is no step where a bad allocation can hide.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .base import CommStep, CommunicationPattern
from .._validation import is_power_of_two, require_positive_int

__all__ = ["PairwiseAlltoall"]


class PairwiseAlltoall(CommunicationPattern):
    """MPICH pairwise-exchange alltoall: P-1 full-machine exchange steps."""

    name = "alltoall"

    def steps(self, nranks: int) -> List[CommStep]:
        """Pairwise-exchange schedule: P-1 steps, rank i meets rank i^s."""
        require_positive_int(nranks, "nranks")
        if nranks == 1:
            return []
        block = 1.0 / nranks
        out: List[CommStep] = []
        if is_power_of_two(nranks):
            ranks = np.arange(nranks, dtype=np.int64)
            for k in range(1, nranks):
                partner = ranks ^ k
                lower = ranks < partner
                out.append(
                    CommStep(
                        np.column_stack([ranks[lower], partner[lower]]),
                        msize=block,
                        exchange=True,
                    )
                )
        else:
            # general P: rank i sends to (i+k) mod P and receives from
            # (i-k) mod P — directed flows, all ranks active each step
            for k in range(1, nranks):
                wrap = nranks - k
                out.append(
                    CommStep(
                        blocks=[(0, wrap, k, 1, 1), (wrap, nranks, -wrap, 1, 1)],
                        msize=block,
                    )
                )
        return out
