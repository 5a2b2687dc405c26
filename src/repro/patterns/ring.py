"""Ring pattern (paper §7 future work; MPI_Allgather ring variant).

Every rank sends to its successor ``(i + 1) mod P`` for ``P - 1``
consecutive steps, passing one ``1/P``-sized block per step. All steps
share the same pair set, so the pattern is encoded as a single
:class:`~repro.patterns.base.CommStep` with ``repeat = P - 1`` — cost
evaluation stays O(P) instead of O(P^2).
"""

from __future__ import annotations

from typing import List

from .base import CommStep, CommunicationPattern
from .._validation import require_positive_int

__all__ = ["Ring"]


class Ring(CommunicationPattern):
    """Neighbour ring exchange, ``P - 1`` identical steps."""

    name = "ring"

    def steps(self, nranks: int) -> List[CommStep]:
        """Ring schedule: one neighbour step repeated P-1 times."""
        require_positive_int(nranks, "nranks")
        if nranks == 1:
            return []
        wrap = nranks - 1
        return [
            CommStep(
                blocks=[(0, wrap, 1, 1, 1), (wrap, nranks, -wrap, 1, 1)],
                msize=1.0 / nranks,
                repeat=nranks - 1,
            )
        ]
