"""2-D stencil halo exchange (paper §7 future work).

Ranks are arranged on a ``px x py`` grid (the most-square factorization
of ``P``, falling back to ``P x 1`` for primes). One "iteration" is four
steps — send east, west, south, north — each a full-grid neighbour shift
with constant message size. Non-periodic boundaries: edge ranks simply
have no partner in that direction.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .base import CommStep, CommunicationPattern
from .._validation import require_positive_int

__all__ = ["Stencil2D", "square_factorization"]


def square_factorization(n: int) -> Tuple[int, int]:
    """Return ``(px, py)`` with ``px * py == n`` and ``px >= py`` maximal-square."""
    require_positive_int(n, "n")
    py = int(np.sqrt(n))
    while py > 1 and n % py != 0:
        py -= 1
    return n // py, py


class Stencil2D(CommunicationPattern):
    """Four-direction halo exchange on a 2-D rank grid.

    Parameters
    ----------
    periodic:
        When True, edges wrap around (torus-style halo exchange).
    """

    name = "stencil2d"

    def __init__(self, periodic: bool = False) -> None:
        self.periodic = bool(periodic)

    def steps(self, nranks: int) -> List[CommStep]:
        """2-D stencil schedule: north/south/east/west neighbour exchanges."""
        require_positive_int(nranks, "nranks")
        if nranks == 1:
            return []
        px, py = square_factorization(nranks)
        n = nranks
        # rank r sits at (x, y) = (r % px, r // px); per direction, the
        # ranks with an in-grid neighbour, then the edge that wraps
        directions = (
            # east: x < px-1 -> r+1; x == px-1 wraps to x = 0
            (px, (0, n, 1, px, px - 1), (px - 1, n, 1 - px, px, 1)),
            # west: x > 0 -> r-1; x == 0 wraps to x = px-1
            (px, (1, n, -1, px, px - 1), (0, n, px - 1, px, 1)),
            # south: y < py-1 -> r+px; the last row wraps to row 0
            (py, (0, n - px, px, 1, 1), (n - px, n, px - n, 1, 1)),
            # north: y > 0 -> r-px; row 0 wraps to the last row
            (py, (px, n, -px, 1, 1), (0, px, n - px, 1, 1)),
        )
        out: List[CommStep] = []
        for extent, inner, wrap in directions:
            if not self.periodic:
                step = CommStep(blocks=[inner], msize=1.0)
            elif extent > 1:
                step = CommStep(blocks=[inner, wrap], msize=1.0)
            else:  # a dimension of extent 1 has no distinct neighbour
                continue
            if step.n_pairs:
                out.append(step)
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Stencil2D) and other.periodic == self.periodic

    def __hash__(self) -> int:
        return hash((type(self), self.periodic))

    def __repr__(self) -> str:
        return f"Stencil2D(periodic={self.periodic})"
