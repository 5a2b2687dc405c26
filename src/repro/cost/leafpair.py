"""Leaf-pair Eq. 6 kernel — the per-node-pair evaluation, aggregated.

Eq. 4 distance and the Eq. 2/3 contention factor depend only on the
*leaf switches* of a communicating node pair, never on the node ids
themselves (intra-node pairs are the one exception: they cost 0). A
collective step's ``max`` over its node pairs is therefore a max over
values that each pair's two leaves fix, and the kernel needs only
*candidate* rank pairs that reach every leaf pair of every step.

The candidates come from one of two routes, chosen per call by which
is smaller:

* **leaf runs.** An allocation maps consecutive ranks to one leaf in
  *runs*: an allocator's takes are exactly these runs, one per leaf.
  Most pattern steps are *shift blocks* (:mod:`repro.patterns.base`):
  rank ``r`` of an interval, under a periodic mask, sends to
  ``r + shift``. Over such a block, the pair of runs
  ``(run(r), run(r + shift))`` can change only at a run start ``s`` or
  at ``s - shift``, so one representative rank per region between
  those breakpoints covers every pair: O(blocks · runs) candidates
  instead of O(P) (:func:`_run_candidates`);
* **rank pairs.** Every inter-rank pair of the pattern, concatenated
  once per ``(pattern, nranks)``. Used for explicit-pair steps
  (power-of-two alltoall, custom patterns) and for allocations split
  into so many runs that the representatives would not be fewer
  (always, on Theta's 16-node leaves).

Candidates come grouped by step. Each candidate's value
``2 * lvl * (1 + c)`` (Eqs. 2-5) is evaluated directly from its two
leaves, and every step's maximum is one ``np.maximum.reduceat`` over
the step offsets. A maximum is exact and ``c`` is symmetric, so a
candidate set with repeats (or with both orders of a pair) gives the
same step maxima as its unique leaf pairs: nothing is sorted or
deduplicated.

Layouts that repeat node ids (``srun``-style) use runs of equal node
ids instead, and a candidate whose two ranks share a node is valued 0,
below every inter-node value (at least 2), so it never sets a maximum.

Everything that depends only on ``(pattern, nranks)`` — the steps, the
ones with an inter-rank pair, the rank-pair table and the block table —
lives in one :class:`PatternPlan`, cached by :func:`pattern_plan`. The
two tables are built on first use, and only the
``_TABLE_PLANS_MAX`` plans that used theirs last keep them built: past
that, the least recently used plan's tables are dropped (its steps
stay) and rebuilt if it is used again. Nothing here is keyed by the
placement: the
reduction costs less than hashing one. Repeated pricing of an unchanged
state is still a dict hit, because the per-leaf contention-share vector
and finished Eq. 6 totals are cached on the state against its version
counter (:meth:`repro.cluster.state.ClusterState.leaf_comm_share` /
``cost_cache_get``).

The values mirror the scalar arithmetic of
:func:`repro.cost.contention.contention_factor` exactly (same operation
order), so results are bit-identical to the per-pair path — property
tests assert equality, not closeness.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, NamedTuple, Optional, Tuple

import numpy as np

from ..patterns.base import CommunicationPattern
from .contention import ContentionModel

__all__ = [
    "PatternPlan",
    "pattern_plan",
    "leaf_pair_cost",
    "clear_leaf_pair_cache",
]

#: plans kept by :func:`pattern_plan`, least recently used first out
_PLAN_CACHE_MAX = 1024

#: plans that keep their rank-pair and block tables built, least
#: recently used first out (the plan stays, its tables are dropped)
_TABLE_PLANS_MAX = 128

#: the run route is taken when blocks x (2 runs + 1) x this factor is
#: below the rank-pair count: a breakpoint slot costs about a dozen rank
#: pairs' work (a row sort plus several masked passes over it)
_RUN_ROUTE_FACTOR = 12

#: an unbuilt lazy field of a plan (``None`` is a built "no table")
_UNBUILT = object()

#: a candidate set: ``(src ranks, dst ranks, offset of each paired step)``
Candidates = Tuple[np.ndarray, np.ndarray, np.ndarray]


class _BlockTable(NamedTuple):
    """The paired steps' shift blocks as ``(B, 1)`` columns, for broadcasting."""

    start: np.ndarray
    stop: np.ndarray
    shift: np.ndarray
    period: np.ndarray
    width: np.ndarray
    #: first row of each paired step; rows are in step order
    step_rows: np.ndarray


class PatternPlan:
    """The state-independent half of Eq. 6 for one ``(pattern, nranks)``.

    Built by :func:`pattern_plan` and shared by every placement of that
    size. ``steps`` are the pattern's steps; ``paired`` the ones with an
    inter-rank pair, the only steps that move data over the network and
    the ones every kernel route prices, in step order. The rank-pair
    table (:attr:`pairs`) and the block table (:attr:`blocks`) are built
    on first use and kept while the plan is among the
    ``_TABLE_PLANS_MAX`` that used them last (:meth:`touch`).
    """

    __slots__ = ("steps", "paired", "n_pairs", "_factors", "_pairs", "_blocks")

    def __init__(self, pattern: CommunicationPattern, nranks: int) -> None:
        self.steps: Tuple = tuple(pattern.steps(nranks))
        self.paired: Tuple = tuple(
            step for step in self.steps if (step.pairs[:, 0] != step.pairs[:, 1]).any()
        )
        #: rank pairs over all steps, the rank-pair route's work
        self.n_pairs = sum(step.n_pairs for step in self.steps)
        self._factors = [(step.msize, step.repeat) for step in self.paired]
        self._pairs = _UNBUILT
        self._blocks = _UNBUILT

    def total(self, worst: Iterable[float], weight_by_msize: bool) -> float:
        """Eq. 6: ``sum_k worst[k] * msize_k * repeat_k`` over the paired steps.

        ``worst[k]`` is the max of the ``k``-th paired step. The sum runs
        in step order with each term's operations in the per-pair
        reference's order, so totals are bit-identical to it; without
        ``weight_by_msize`` the message size is 1.0, which leaves the
        product unchanged.
        """
        total = 0.0
        if weight_by_msize:
            for step_worst, (msize, repeat) in zip(worst, self._factors):
                total += step_worst * msize * repeat
        else:
            for step_worst, (_, repeat) in zip(worst, self._factors):
                total += step_worst * repeat
        return total

    def touch(self) -> None:
        """Mark this plan's tables the most recently used.

        A plan new to the table LRU joins it, and the least recently
        used plan's tables are dropped once more than
        ``_TABLE_PLANS_MAX`` plans are in it.
        """
        try:
            _TABLE_PLANS.move_to_end(self)
        except KeyError:
            _TABLE_PLANS[self] = None
            if len(_TABLE_PLANS) > _TABLE_PLANS_MAX:
                _TABLE_PLANS.popitem(last=False)[0]._drop_tables()

    def _drop_tables(self) -> None:
        """Forget the built tables; the next use builds them again."""
        self._pairs = self._blocks = _UNBUILT

    @property
    def pairs(self) -> Candidates:
        """Every inter-rank pair of the paired steps, concatenated in step order."""
        if self._pairs is _UNBUILT:
            self.touch()
            parts = [step.pairs[step.pairs[:, 0] != step.pairs[:, 1]] for step in self.paired]
            flat = np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64)
            sizes = [part.shape[0] for part in parts]
            offsets = np.cumsum([0] + sizes[:-1], dtype=np.int64)
            self._pairs = (
                np.ascontiguousarray(flat[:, 0]),
                np.ascontiguousarray(flat[:, 1]),
                offsets,
            )
        return self._pairs

    @property
    def blocks(self) -> Optional[_BlockTable]:
        """The paired steps' shift blocks in one table.

        ``None`` when some paired step is an explicit pair list
        (power-of-two alltoall, custom patterns). Blocks with shift 0
        pair each rank with itself, always intra-node, so they are left
        out; every paired step keeps at least one row, the block its
        inter-rank pairs come from.
        """
        if self._blocks is _UNBUILT:
            self.touch()
            self._blocks = None
            if self.paired and all(step.blocks is not None for step in self.paired):
                rows = [step.blocks[step.blocks[:, 2] != 0] for step in self.paired]
                table = np.concatenate(rows)
                step_rows = np.cumsum([0] + [r.shape[0] for r in rows[:-1]], dtype=np.int64)
                self._blocks = _BlockTable(
                    *(np.ascontiguousarray(col[:, None]) for col in table.T),
                    step_rows=step_rows,
                )
        return self._blocks

    def run_route(self, n_runs: int) -> bool:
        """True when a placement of ``n_runs`` runs takes the run route.

        The rule weighs the breakpoint slots of the run route against
        the rank pairs of the pair route, from the sizes alone.
        """
        table = self.blocks
        return (
            table is not None
            and table.start.shape[0] * (2 * n_runs + 1) * _RUN_ROUTE_FACTOR < self.n_pairs
        )


#: the plans of :func:`pattern_plan`, least recently used first
_PLANS: "OrderedDict[Tuple[CommunicationPattern, int], PatternPlan]" = OrderedDict()

#: the plans whose tables may be built, least recently used first
_TABLE_PLANS: "OrderedDict[PatternPlan, None]" = OrderedDict()


def pattern_plan(pattern: CommunicationPattern, nranks: int) -> PatternPlan:
    """The cached :class:`PatternPlan` of ``(pattern, nranks)``.

    A continuous run evaluates the same pattern at the same sizes
    thousands of times; patterns hash by type (plus parameters), so
    distinct configurations get distinct plans. The least recently used
    of more than ``_PLAN_CACHE_MAX`` plans is dropped, tables and all.
    """
    key = (pattern, nranks)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = PatternPlan(pattern, nranks)
        if len(_PLANS) > _PLAN_CACHE_MAX:
            _TABLE_PLANS.pop(_PLANS.popitem(last=False)[1], None)
    else:
        _PLANS.move_to_end(key)
    return plan


def clear_leaf_pair_cache() -> None:
    """Drop every cached pattern plan (tests and cold benchmarks)."""
    _PLANS.clear()
    _TABLE_PLANS.clear()


def run_bounds(run_of: np.ndarray) -> np.ndarray:
    """Ranks where a run of equal ``run_of`` values starts, rank 0 excluded."""
    return np.flatnonzero(run_of[1:] != run_of[:-1]) + 1


def _run_candidates(table: _BlockTable, bounds: np.ndarray) -> Candidates:
    """One ``(src, dst)`` per block region where no end changes run.

    ``bounds`` are the ranks where a run starts, rank 0 excluded. Over a
    block with shift ``c``, ``run(r)`` changes only at a bound ``s`` and
    ``run(r + c)`` only at ``s - c``, so between consecutive breakpoints
    (those values clipped to ``[start, stop]``, plus the block's ends)
    every rank the mask admits gives the same pair of runs. The first
    admitted rank of each non-empty region stands for all of them:
    O(blocks x runs) work for every step at once, instead of one
    lookup per rank pair. Candidates come out in row order, so each
    paired step's start is a binary search for its first row.
    """
    start, stop, shift, period, width, step_rows = table
    # slice assignment broadcasts the (B, 1) columns and the bounds row
    # without numpy's Python-level broadcast/concatenate/clip wrappers,
    # whose overhead outweighs the arithmetic at these sizes
    nb = bounds.size
    cuts = np.empty((start.shape[0], 2 * nb + 2), dtype=np.int64)
    cuts[:, :1] = start
    cuts[:, 1 : nb + 1] = bounds
    cuts[:, nb + 1 : -1] = bounds - shift
    cuts[:, -1:] = stop
    np.maximum(cuts, start, out=cuts)
    np.minimum(cuts, stop, out=cuts)
    cuts.sort(axis=1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    off = (lo - start) % period
    rep = np.where(off < width, lo, lo + period - off)
    rows, cols = np.nonzero(rep < hi)
    src = rep[rows, cols]
    return src, src + shift[rows, 0], rows.searchsorted(step_rows)


def _candidates(plan: PatternPlan, bounds: Optional[np.ndarray]) -> Candidates:
    """The candidate rank pairs of a placement whose runs start at ``bounds``.

    The run route when ``bounds`` are given and :meth:`PatternPlan.run_route`
    takes it for that many runs; every inter-rank pair otherwise.
    """
    plan.touch()
    if bounds is not None and plan.run_route(bounds.size + 1):
        return _run_candidates(plan.blocks, bounds)
    return plan.pairs


def _pair_values(view, la: np.ndarray, lb: np.ndarray, contention: ContentionModel) -> np.ndarray:
    """``2 * lvl * (1 + c)`` of a rank pair on leaves ``la`` and ``lb`` (Eqs. 2-5).

    One value per candidate. Mirrors :func:`~repro.cost.contention.contention_factor` operation
    for operation: the cross-switch term, or the one switch's own share
    for two ranks on one leaf switch. ``view`` is a
    :class:`~repro.cluster.state.ClusterState` or
    :class:`~repro.cluster.state.CommOverlay` — anything exposing
    ``topology``, ``leaf_comm`` and ``leaf_comm_share()``.
    """
    topo = view.topology
    lvl = topo.leaf_lca_levels()[la, lb]
    share = view.leaf_comm_share()
    comm = view.leaf_comm
    sizes = topo.leaf_sizes
    share_a = share[la]
    if contention.per_level:
        weight = contention.shared_weight(lvl)
    else:
        weight = contention.uplink_discount
    cross = share_a + share[lb] + weight * (comm[la] + comm[lb]) / (sizes[la] + sizes[lb])
    c = np.where(la == lb, share_a, cross)
    return 2 * lvl * (1.0 + c)


def _step_max(values: np.ndarray, offsets: np.ndarray) -> list:
    """Each paired step's largest candidate value, as Python floats."""
    return np.maximum.reduceat(values, offsets).tolist()


def leaf_pair_cost(
    view,
    leaf_assign: np.ndarray,
    plan: PatternPlan,
    contention: ContentionModel,
    weight_by_msize: bool,
    *,
    bounds: Optional[np.ndarray] = None,
    repeated_nodes: Optional[np.ndarray] = None,
) -> float:
    """Eq. 6 total with rank ``r`` on leaf ``leaf_assign[r]``.

    ``plan`` is :func:`pattern_plan` of the pattern at
    ``leaf_assign.size`` ranks; ``view`` as for :func:`_pair_values`.
    ``bounds`` are the ranks where a run starts (rank 0 excluded) when
    the caller already knows them, as takes do; otherwise they are
    found from ``leaf_assign``. Pass ``repeated_nodes``, the node id of
    every rank, for rank layouts that place several ranks on one node,
    so runs are runs of one node and intra-node pairs are recognised by
    node id rather than by rank.
    """
    if not plan.paired:
        return 0.0
    if bounds is None and plan.blocks is not None:
        bounds = run_bounds(leaf_assign if repeated_nodes is None else repeated_nodes)
    src, dst, offsets = _candidates(plan, bounds)
    values = _pair_values(view, leaf_assign[src], leaf_assign[dst], contention)
    if repeated_nodes is not None:
        # a free intra-node pair: 0 never sets a step's max (values >= 2)
        # and a step of only such pairs adds 0.0 to the total
        values[repeated_nodes[src] == repeated_nodes[dst]] = 0.0
    return plan.total(_step_max(values, offsets), weight_by_msize)
