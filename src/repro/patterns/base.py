"""Communication-pattern abstraction (paper §3.3).

The paper's cost model (Eq. 6) walks the *steps* of the parallel
algorithm underlying an MPI collective: at step ``n`` a set of rank
pairs ``S_n`` communicate simultaneously, and the step contributes the
maximum effective hop count over those pairs. A pattern therefore only
needs to expose, per step:

* the communicating (source, destination) rank pairs, and
* the relative message size of that step (vector-doubling algorithms
  double it every step — §5.3).

Ranks are ``0..nranks-1`` and are mapped to allocated nodes in
allocation order by the cost model.

Most steps of the built-in patterns are *shift blocks*: a row
``(start, stop, shift, period, width)`` says that every rank ``r`` in
``[start, stop)`` with ``(r - start) % period < width`` sends to
``r + shift``. An XOR-``d`` exchange is the single block
``(0, P, d, 2d, d)``; a contiguous range shifted by ``c`` is
``(start, stop, c, 1, 1)``. A step built from blocks derives its pair
array from them, and the Eq. 6 kernel reads the blocks directly to
price a job from one rank per run of its allocation instead of from
every pair (:mod:`repro.cost.leafpair`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._validation import require_positive_int

__all__ = ["CommStep", "CommunicationPattern", "pairs_array"]


def pairs_array(pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Convert a pair sequence into the canonical ``(k, 2)`` int64 array."""
    arr = np.asarray(list(pairs), dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"pairs must have shape (k, 2), got {arr.shape}")
    return arr


def _shift_blocks_array(blocks) -> np.ndarray:
    """Validate shift blocks into the canonical ``(b, 5)`` int64 array.

    Columns are ``(start, stop, shift, period, width)``; a row needs
    ``0 <= start <= stop``, ``period >= 1`` and ``0 <= width <= period``.
    """
    arr = np.asarray(blocks, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 5)
    if arr.ndim != 2 or arr.shape[1] != 5:
        raise ValueError(f"blocks must have shape (b, 5), got {arr.shape}")
    start, stop, _, period, width = arr.T
    if (
        (start < 0).any()
        or (stop < start).any()
        or (period < 1).any()
        or (width < 0).any()
        or (width > period).any()
    ):
        raise ValueError(f"malformed shift blocks {arr.tolist()}")
    return arr


def _expand_blocks(blocks: np.ndarray) -> np.ndarray:
    """The ``(k, 2)`` pairs a ``(b, 5)`` block array describes.

    Rows are stable-sorted by source rank, the order the patterns listed
    their pairs in before they were described by blocks.
    """
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    for start, stop, shift, period, width in blocks.tolist():
        src = np.arange(start, stop, dtype=np.int64)
        if width < period:
            src = src[(src - start) % period < width]
        src_parts.append(src)
        dst_parts.append(src + shift)
    if not src_parts:
        return np.empty((0, 2), dtype=np.int64)
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    if len(src_parts) > 1:
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
    return np.column_stack([src, dst])


@dataclass(frozen=True)
class CommStep:
    """One parallel step of a collective algorithm.

    Give either ``pairs`` or ``blocks``, not both.

    Attributes
    ----------
    pairs:
        ``(k, 2)`` int64 array of (source rank, destination rank) pairs
        that communicate simultaneously in this step. Expanded from
        ``blocks`` when the step is built from blocks.
    msize:
        Message size of this step, relative to the collective's base
        message size (1.0 = base size).
    repeat:
        Number of identical consecutive executions of this step. Ring
        algorithms repeat the same neighbour exchange ``P-1`` times;
        representing that once with ``repeat=P-1`` keeps cost evaluation
        O(1) in the repeat count.
    exchange:
        True when each listed pair is a *bidirectional* exchange (data
        moves both ways, as in recursive doubling/halving); False when
        pairs are one-way sends (binomial, ring, stencil). The hop-count
        cost model (Eq. 6) is direction-agnostic, but the flow-level
        network simulator spawns reverse flows only for exchanges.
    blocks:
        ``(b, 5)`` int64 shift blocks ``(start, stop, shift, period,
        width)`` describing ``pairs`` (see the module docstring), or
        ``None`` for a step given as an explicit pair list.
    """

    pairs: Optional[np.ndarray] = None
    msize: float = 1.0
    repeat: int = 1
    exchange: bool = False
    blocks: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.blocks is None:
            if self.pairs is None:
                raise ValueError("a step needs pairs or blocks")
            object.__setattr__(self, "pairs", pairs_array(self.pairs))
        else:
            if self.pairs is not None:
                raise ValueError("give pairs or blocks, not both")
            blocks = _shift_blocks_array(self.blocks)
            object.__setattr__(self, "blocks", blocks)
            object.__setattr__(self, "pairs", _expand_blocks(blocks))
        if self.msize <= 0:
            raise ValueError(f"msize must be > 0, got {self.msize}")
        require_positive_int(self.repeat, "repeat")

    @property
    def n_pairs(self) -> int:
        """Number of simultaneously communicating pairs in this step."""
        return int(self.pairs.shape[0])


class CommunicationPattern(ABC):
    """Abstract parallel-algorithm communication pattern.

    Subclasses implement :meth:`steps`, returning the per-step pair sets
    for a given rank count. Patterns are stateless and hashable by name,
    so they can be shared across jobs and used as registry keys.
    """

    #: short registry name, e.g. ``"rd"``
    name: str = "abstract"

    @abstractmethod
    def steps(self, nranks: int) -> List[CommStep]:
        """Return the ordered communication steps for ``nranks`` ranks.

        Must accept any ``nranks >= 1``; a single rank yields no steps.
        """

    def n_steps(self, nranks: int) -> int:
        """Total step count including repeats (diagnostics only)."""
        return sum(s.repeat for s in self.steps(nranks))

    def total_pair_count(self, nranks: int) -> int:
        """Total communicating pairs across all steps and repeats."""
        return sum(s.n_pairs * s.repeat for s in self.steps(nranks))

    def validate_steps(self, nranks: int) -> None:
        """Sanity-check step structure; raises ``ValueError`` on bad ranks."""
        for idx, step in enumerate(self.steps(nranks)):
            if step.n_pairs == 0:
                continue
            if step.pairs.min() < 0 or step.pairs.max() >= nranks:
                raise ValueError(
                    f"{self.name}: step {idx} references ranks outside [0, {nranks})"
                )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CommunicationPattern) and type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


def fold_to_power_of_two(nranks: int) -> Tuple[int, np.ndarray, np.ndarray]:
    """MPICH-style embedding of a non-power-of-two rank count.

    Returns ``(p2, extra_src, extra_dst)`` where ``p2`` is the largest
    power of two <= ``nranks`` and the extra ranks ``p2..nranks-1`` are
    paired with ranks ``0..rem-1`` in a fold-in pre-step (and symmetric
    fold-out post-step). For power-of-two counts the extra arrays are
    empty.
    """
    require_positive_int(nranks, "nranks")
    p2 = 1 << (nranks.bit_length() - 1)
    if p2 == nranks:
        empty = np.empty(0, dtype=np.int64)
        return p2, empty, empty
    extra = np.arange(p2, nranks, dtype=np.int64)
    return p2, extra, extra - p2
