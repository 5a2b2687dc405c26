"""Leaf-pair Eq. 6 kernel — the per-node-pair evaluation, aggregated.

Eq. 4 distance and the Eq. 2/3 contention factor depend only on the
*leaf switches* of a communicating node pair, never on the node ids
themselves (intra-node pairs are the one exception: they cost 0 and are
dropped up front). A collective step's ``max`` over its node pairs is
therefore the max over the step's *unique leaf pairs* — O(L²) work per
step instead of O(P), where P reaches 10⁸ pair evaluations per run at
Mira scale (136 leaves → at most 9k canonical leaf pairs).

Finding a step's unique leaf pairs is the expensive part. The kernel
does it for all steps at once, from one of two candidate sets, chosen
per call by which is smaller:

* **leaf runs.** An allocation maps consecutive ranks to one leaf in
  *runs*: an allocator's takes are exactly these runs, one per leaf,
  so a job has as many runs as leaves (14 for the median Eq. 6 call of
  an adaptive Mira replay). Most pattern steps are *shift blocks*
  (:mod:`repro.patterns.base`): rank ``r`` of an interval, under a
  periodic mask, sends to ``r + shift``. Over such a block, the leaf
  pair ``(leaf(r), leaf(r + shift))`` can change only at a run start
  ``s`` or at ``s - shift``, so one representative rank per region
  between those breakpoints covers every pair: O(blocks · runs)
  candidates instead of O(P);
* **rank pairs.** Every inter-rank pair of the pattern, concatenated
  once per ``(pattern, nranks)``. Used for explicit-pair steps
  (power-of-two alltoall, custom patterns) and for allocations split
  into so many runs that the representatives would not be fewer
  (always, on Theta's 16-node leaves).

Layouts that repeat node ids (``srun``-style) use runs of equal node
ids instead, and drop candidates whose two ranks share a node. The
candidates of either set then become ``(step, leaf pair)`` codes,
deduplicated with a sort. Nothing here is keyed by the leaf assignment:
the reduction costs less than hashing one. Repeated pricing of an
unchanged state is still a dict hit, because the per-leaf
contention-share vector and finished Eq. 6 totals are cached on the
state against its version counter
(:meth:`repro.cluster.state.ClusterState.leaf_comm_share` /
``cost_cache_get``).

The kernel mirrors the scalar arithmetic of
:func:`repro.cost.contention.contention_factor` exactly (same operation
order), so results are bit-identical to the per-pair path — property
tests assert equality, not closeness.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from ..patterns.base import CommunicationPattern
from .contention import ContentionModel

__all__ = ["leaf_pair_cost", "clear_leaf_pair_cache"]

#: entries kept per (pattern, nranks)-keyed cache below; least recently
#: used first out
_PATTERN_CACHE_MAX = 128

#: cached (pattern, nranks) -> concatenated inter-rank pairs of every
#: step (rank-equal pairs dropped), with a step id per pair — the
#: state-independent half of the rank-pair route's build
_PATTERN_PAIRS_CACHE: "OrderedDict[Tuple, Optional[Tuple]]" = OrderedDict()

#: cached (pattern, nranks) -> every step's shift blocks as one table,
#: or None when the steps have no block form (see _pattern_blocks)
_PATTERN_BLOCKS_CACHE: "OrderedDict[Tuple, Optional[_BlockTable]]" = OrderedDict()

#: the run route is taken when blocks x (2 runs + 1) x this factor is
#: below the rank-pair count: a breakpoint slot costs about a dozen rank
#: pairs' work (a row sort plus several masked passes over it)
_RUN_ROUTE_FACTOR = 12


def clear_leaf_pair_cache() -> None:
    """Drop all cached pattern pair and block tables (tests and cold benchmarks)."""
    _PATTERN_PAIRS_CACHE.clear()
    _PATTERN_BLOCKS_CACHE.clear()


class _BlockTable(NamedTuple):
    """Every step's shift blocks as ``(B, 1)`` columns, for broadcasting."""

    start: np.ndarray
    stop: np.ndarray
    shift: np.ndarray
    period: np.ndarray
    width: np.ndarray
    step: np.ndarray
    #: rank pairs over all steps, the rank-pair route's work
    n_pairs: int


def _memo(cache: "OrderedDict", key: Tuple, build: Callable[[], Any]) -> Any:
    """LRU lookup of ``key`` in ``cache``, filled by ``build()`` on a miss."""
    cached = cache.get(key, cache)
    if cached is not cache:
        cache.move_to_end(key)
        return cached
    value = build()
    if len(cache) >= _PATTERN_CACHE_MAX:
        cache.popitem(last=False)
    cache[key] = value
    return value


def _pattern_pairs(
    pattern: CommunicationPattern, steps: Tuple, nranks: int
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """All steps' inter-rank pairs concatenated: ``(src, dst, step id)``.

    State-independent and leaf-assignment-independent, so it is cached
    per ``(pattern, nranks)`` and shared by every allocation of that
    size. ``None`` when no step carries an inter-rank pair.
    """

    def build() -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        sid_parts: List[np.ndarray] = []
        for i, step in enumerate(steps):
            pairs = step.pairs
            pairs = pairs[pairs[:, 0] != pairs[:, 1]]
            if pairs.shape[0] == 0:
                continue
            src_parts.append(pairs[:, 0])
            dst_parts.append(pairs[:, 1])
            sid_parts.append(np.full(pairs.shape[0], i, dtype=np.int64))
        if not src_parts:
            return None
        return (
            np.concatenate(src_parts),
            np.concatenate(dst_parts),
            np.concatenate(sid_parts),
        )

    return _memo(_PATTERN_PAIRS_CACHE, (pattern, nranks), build)


def _pattern_blocks(
    pattern: CommunicationPattern, steps: Tuple, nranks: int
) -> Optional[_BlockTable]:
    """Every step's shift blocks in one table, cached per ``(pattern, nranks)``.

    ``None`` when there are no steps or some step is an explicit pair
    list (power-of-two alltoall, custom patterns). Blocks with shift 0
    pair each rank with itself, always intra-node, so they are left out.
    """

    def build() -> Optional[_BlockTable]:
        if not steps or any(step.blocks is None for step in steps):
            return None
        rows = [step.blocks for step in steps]
        sid = np.repeat(np.arange(len(rows), dtype=np.int64), [r.shape[0] for r in rows])
        table = np.column_stack([np.concatenate(rows), sid])
        table = table[table[:, 2] != 0]
        return _BlockTable(
            *(np.ascontiguousarray(col[:, None]) for col in table.T),
            n_pairs=sum(step.n_pairs for step in steps),
        )

    return _memo(_PATTERN_BLOCKS_CACHE, (pattern, nranks), build)


def _run_representatives(
    table: _BlockTable, bounds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``(src, dst, step id)`` per block region where no end changes run.

    ``bounds`` are the ranks where a run starts, rank 0 excluded. Over a
    block with shift ``c``, ``run(r)`` changes only at a bound ``s`` and
    ``run(r + c)`` only at ``s - c``, so between consecutive breakpoints
    (those values clipped to ``[start, stop]``, plus the block's ends)
    every rank the mask admits gives the same pair of runs. The first
    admitted rank of each non-empty region stands for all of them:
    O(blocks x runs) work for every step at once, instead of one
    lookup per rank pair.
    """
    start, stop, shift, period, width, step, _ = table
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
    return src, src + shift[rows, 0], step[rows, 0]


def _leaf_pair_flat(
    pattern: CommunicationPattern,
    steps: Tuple,
    leaf_assign: np.ndarray,
    n_leaves: int,
    run_bounds: Optional[np.ndarray],
    repeated_nodes: Optional[np.ndarray],
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, ...]]]:
    """Concatenated ``(ula, ulb, segment offsets, step index per segment)``.

    Every step's unique leaf pairs in one array, one segment per
    non-empty step, so :func:`leaf_pair_cost` evaluates the whole cost
    in a single batch with a ``maximum.reduceat`` per-segment max rather
    than a dozen numpy calls per step. Returns ``None`` when no step
    carries an inter-node pair (cost 0).

    The candidate ``(src, dst, step)`` ranks come from one of two
    routes, chosen per call from the input's own sizes:

    * **runs** — when every step is made of shift blocks and the
      allocation falls into few enough runs (maximal rank intervals on
      one leaf; on one node for layouts that repeat node ids; found
      from ``leaf_assign`` unless ``run_bounds`` gives them), one
      representative rank per block region (:func:`_run_representatives`);
    * **rank pairs** — otherwise, every inter-rank pair of the pattern
      (:func:`_pattern_pairs`).

    Both feed one tail: rank pairs on a single node are dropped (layouts
    that repeat node ids only), the rest become canonical
    ``(step, leaf pair)`` codes, deduplicated by a sort and an
    adjacent-difference mask.
    """
    nranks = leaf_assign.size
    candidates = None
    table = _pattern_blocks(pattern, steps, nranks)
    if table is not None:
        if run_bounds is None:
            run_of = leaf_assign if repeated_nodes is None else repeated_nodes
            run_bounds = np.flatnonzero(run_of[1:] != run_of[:-1]) + 1
        n_runs = run_bounds.size + 1
        n_blocks = table.start.shape[0]
        if n_blocks * (2 * n_runs + 1) * _RUN_ROUTE_FACTOR < table.n_pairs:
            candidates = _run_representatives(table, run_bounds)
    if candidates is None:
        candidates = _pattern_pairs(pattern, steps, nranks)
        if candidates is None:
            return None
    src, dst, sid = candidates
    if repeated_nodes is not None:
        keep = repeated_nodes[src] != repeated_nodes[dst]
        src, dst, sid = src[keep], dst[keep], sid[keep]
    if src.size == 0:
        return None
    la = leaf_assign[src]
    lb = leaf_assign[dst]
    n_codes = n_leaves * n_leaves
    codes = sid * n_codes + np.minimum(la, lb) * n_leaves + np.maximum(la, lb)
    # sort + adjacent-difference instead of np.unique: the same sorted
    # unique codes, several times faster on these arrays
    codes.sort()
    first = np.empty(codes.size, dtype=bool)
    first[0] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    ucodes = codes[first]
    step_of = ucodes // n_codes
    rem = ucodes - step_of * n_codes
    boundaries = np.flatnonzero(step_of[1:] != step_of[:-1]) + 1
    offsets = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    return (
        rem // n_leaves,
        rem % n_leaves,
        offsets,
        tuple(step_of[offsets].tolist()),
    )


def leaf_pair_cost(
    view,
    leaf_assign: np.ndarray,
    pattern: CommunicationPattern,
    steps: Tuple,
    contention: ContentionModel,
    weight_by_msize: bool,
    *,
    run_bounds: Optional[np.ndarray] = None,
    repeated_nodes: Optional[np.ndarray] = None,
) -> float:
    """Eq. 6 total of ``pattern`` with rank ``r`` on leaf ``leaf_assign[r]``.

    ``view`` is a :class:`~repro.cluster.state.ClusterState` or
    :class:`~repro.cluster.state.CommOverlay` — anything exposing
    ``topology``, ``leaf_comm`` and ``leaf_comm_share()``.
    ``run_bounds`` are the ranks where a leaf run starts (rank 0
    excluded) when the caller already knows them, as takes do. Pass
    ``repeated_nodes``, the node id of every rank, for rank layouts
    that place several ranks on one node, so intra-node pairs are
    recognised by node id rather than by rank.
    """
    topo = view.topology
    lca_levels = topo.leaf_lca_levels()
    share = view.leaf_comm_share()
    comm = view.leaf_comm
    sizes = topo.leaf_sizes
    flat = _leaf_pair_flat(
        pattern, steps, leaf_assign, topo.n_leaves, run_bounds, repeated_nodes
    )
    if flat is None:
        return 0.0
    ula, ulb, offsets, seg_idx = flat
    lvl = lca_levels[ula, ulb]
    share_a = share[ula]
    share_b = share[ulb]
    if contention.per_level:
        weight = contention.shared_weight(lvl)
    else:
        weight = contention.uplink_discount
    # mirror contention_factor() operation-for-operation; reduceat takes
    # each segment's exact max, and the final accumulation walks segments
    # in step order, so the total is bit-identical to the per-pair path
    cross = share_a + share_b + weight * (comm[ula] + comm[ulb]) / (
        sizes[ula] + sizes[ulb]
    )
    c = np.where(ula == ulb, share_a, cross)
    worst = np.maximum.reduceat(2 * lvl * (1.0 + c), offsets)
    total = 0.0
    for step_worst, i in zip(worst.tolist(), seg_idx):
        step = steps[i]
        step_weight = step.msize if weight_by_msize else 1.0
        total += step_worst * step_weight * step.repeat
    return total
