"""Leaf-pair Eq. 6 kernel — the per-node-pair evaluation, aggregated.

Eq. 4 distance and the Eq. 2/3 contention factor depend only on the
*leaf switches* of a communicating node pair, never on the node ids
themselves (intra-node pairs are the one exception: they cost 0 and are
dropped up front). A collective step's ``max`` over its node pairs is
therefore the max over the step's *unique leaf pairs* — O(L²) work per
step instead of O(P), where P reaches 10⁸ pair evaluations per run at
Mira scale (136 leaves → at most 9k canonical leaf pairs).

Two layers make repeated evaluations cheap:

* the rank-pair → unique-leaf-pair reduction is state-independent, so it
  is cached per ``(pattern, nranks, leaf assignment)``
  (:func:`leaf_pair_steps`) — the adaptive allocator and the engine
  price the same allocation several times per job start;
* the per-leaf contention-share vector and finished Eq. 6 totals are
  cached on the state against its version counter
  (:meth:`repro.cluster.state.ClusterState.leaf_comm_share` /
  ``cost_cache_get``), so pricing an unchanged state is a dict hit.

The kernel mirrors the scalar arithmetic of
:func:`repro.cost.contention.contention_factor` exactly (same operation
order), so results are bit-identical to the per-pair path — property
tests assert equality, not closeness.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from .._perfflags import is_legacy
from ..patterns.base import CommunicationPattern
from .contention import ContentionModel

__all__ = ["leaf_pair_steps", "leaf_pair_cost", "clear_leaf_pair_cache"]

#: cached (pattern, nranks, leaf-assignment) -> per-step unique leaf pairs
_LEAF_STEP_CACHE: "OrderedDict[Tuple, List[Optional[Tuple[np.ndarray, np.ndarray]]]]" = (
    OrderedDict()
)
_LEAF_STEP_CACHE_MAX = 128

#: cached flattened form of the same reduction: all steps' leaf pairs in
#: one segmented array pair, for a single vectorized evaluation. Keys
#: embed the leaf assignment, so distinct placements never collide —
#: but that same cardinality means a long trace touches tens of
#: thousands of keys, and a small cap thrashes. Entries are a few KB
#: (segment arrays over at most min(P, L^2) leaf pairs), so a much
#: larger cap than the per-step cache costs tens of MB, not more. The
#: per-step cache keeps its original cap: it also backs the legacy
#: evaluation path, whose behaviour benchmarks use as the pre-change
#: baseline.
_LEAF_FLAT_CACHE: "OrderedDict[Tuple, Optional[Tuple]]" = OrderedDict()
_LEAF_FLAT_CACHE_MAX = 8192

#: cached (pattern, nranks) -> concatenated inter-rank pairs of every
#: step (rank-equal pairs dropped), with a step id per pair — the
#: state-independent half of the flat reduction's build
_PATTERN_PAIRS_CACHE: "OrderedDict[Tuple, Optional[Tuple]]" = OrderedDict()

#: above this many leaf-pair slots, unique-finding falls back from a
#: dense boolean scatter (O(P + L²)) to sort-based np.unique (O(P log P))
_DENSE_UNIQUE_LIMIT = 4_000_000


def clear_leaf_pair_cache() -> None:
    """Drop all cached leaf-pair reductions (tests and cold benchmarks)."""
    _LEAF_STEP_CACHE.clear()
    _LEAF_FLAT_CACHE.clear()
    _PATTERN_PAIRS_CACHE.clear()


def _unique_leaf_pairs(
    la: np.ndarray, lb: np.ndarray, n_leaves: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical (lo <= hi) unique leaf pairs among ``(la, lb)``."""
    lo = np.minimum(la, lb)
    hi = np.maximum(la, lb)
    codes = lo * n_leaves + hi
    n_codes = n_leaves * n_leaves
    if n_codes <= _DENSE_UNIQUE_LIMIT:
        seen = np.zeros(n_codes, dtype=bool)
        seen[codes] = True
        ucodes = np.flatnonzero(seen)
    else:
        ucodes = np.unique(codes)
    return ucodes // n_leaves, ucodes % n_leaves


def leaf_pair_steps(
    pattern: CommunicationPattern,
    steps: Tuple,
    node_arr: np.ndarray,
    leaf_assign: np.ndarray,
    n_leaves: int,
    unique_nodes: bool,
) -> List[Optional[Tuple[np.ndarray, np.ndarray]]]:
    """Per-step unique leaf pairs of ``pattern`` under a rank→node map.

    ``node_arr[r]`` / ``leaf_assign[r]`` are the node id / leaf index
    serving rank ``r``. The mapping is state-independent, so results are
    cached — per ``(pattern, nranks, leaf assignment)`` when the node
    ids are unique (allocations), or per ``(pattern, nranks, node
    assignment)`` when ranks share nodes (``srun``-style layouts, where
    leaf identity alone cannot tell an intra-node pair from an
    intra-leaf one). Intra-node pairs (zero hops) are dropped here; a
    step entry is ``None`` when the step has no pairs at all, and holds
    empty arrays when every pair was intra-node.
    """
    if unique_nodes:
        key = (pattern, leaf_assign.size, True, leaf_assign.tobytes())
    else:
        key = (pattern, node_arr.size, False, node_arr.tobytes())
    cached = _LEAF_STEP_CACHE.get(key)
    if cached is not None:
        _LEAF_STEP_CACHE.move_to_end(key)
        return cached
    per_step: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
    for step in steps:
        if step.n_pairs == 0:
            per_step.append(None)
            continue
        pairs = step.pairs
        if unique_nodes:
            # distinct ranks <=> distinct nodes
            keep = pairs[:, 0] != pairs[:, 1]
        else:
            keep = node_arr[pairs[:, 0]] != node_arr[pairs[:, 1]]
        if not keep.all():
            pairs = pairs[keep]
        if pairs.shape[0] == 0:
            per_step.append(
                (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
            )
            continue
        la = leaf_assign[pairs[:, 0]]
        lb = leaf_assign[pairs[:, 1]]
        per_step.append(_unique_leaf_pairs(la, lb, n_leaves))
    if len(_LEAF_STEP_CACHE) >= _LEAF_STEP_CACHE_MAX:
        _LEAF_STEP_CACHE.popitem(last=False)
    _LEAF_STEP_CACHE[key] = per_step
    return per_step


def _pattern_pairs(
    pattern: CommunicationPattern, steps: Tuple, nranks: int
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """All steps' inter-rank pairs concatenated: ``(src, dst, step id)``.

    State-independent and leaf-assignment-independent (for unique-node
    allocations rank inequality is node inequality), so it is cached per
    ``(pattern, nranks)`` and shared by every allocation of that size.
    ``None`` when no step carries an inter-rank pair.
    """
    key = (pattern, nranks)
    cached = _PATTERN_PAIRS_CACHE.get(key, _PATTERN_PAIRS_CACHE)
    if cached is not _PATTERN_PAIRS_CACHE:
        _PATTERN_PAIRS_CACHE.move_to_end(key)
        return cached
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    sid_parts: List[np.ndarray] = []
    for i, step in enumerate(steps):
        if step.n_pairs == 0:
            continue
        pairs = step.pairs
        keep = pairs[:, 0] != pairs[:, 1]
        if not keep.all():
            pairs = pairs[keep]
        if pairs.shape[0] == 0:
            continue
        src_parts.append(pairs[:, 0].astype(np.int64))
        dst_parts.append(pairs[:, 1].astype(np.int64))
        sid_parts.append(np.full(pairs.shape[0], i, dtype=np.int64))
    if src_parts:
        result = (
            np.concatenate(src_parts),
            np.concatenate(dst_parts),
            np.concatenate(sid_parts),
        )
    else:
        result = None
    if len(_PATTERN_PAIRS_CACHE) >= _LEAF_STEP_CACHE_MAX:
        _PATTERN_PAIRS_CACHE.popitem(last=False)
    _PATTERN_PAIRS_CACHE[key] = result
    return result


def _leaf_pair_flat(
    pattern: CommunicationPattern,
    steps: Tuple,
    node_arr: np.ndarray,
    leaf_assign: np.ndarray,
    n_leaves: int,
    unique_nodes: bool,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, ...]]]:
    """Concatenated ``(ula, ulb, segment offsets, step index per segment)``.

    The per-step evaluation in :func:`leaf_pair_cost` launches ~15 numpy
    kernels per step on arrays of a few dozen pairs — call overhead, not
    arithmetic, dominates. Flattening every non-empty step into one pair
    array lets the whole cost evaluate in a single batch with a
    ``maximum.reduceat`` per-segment max. Returns ``None`` when no step
    carries an inter-node pair (cost 0). Cached like the per-step form.

    For unique-node allocations the build itself is one vectorized
    dedup over ``(step, leaf pair)`` codes instead of a per-step loop;
    rank layouts with repeated nodes fall back to concatenating the
    per-step reduction.
    """
    if unique_nodes:
        key = (pattern, leaf_assign.size, True, leaf_assign.tobytes())
    else:
        key = (pattern, node_arr.size, False, node_arr.tobytes())
    cached = _LEAF_FLAT_CACHE.get(key, _LEAF_FLAT_CACHE)
    if cached is not _LEAF_FLAT_CACHE:
        _LEAF_FLAT_CACHE.move_to_end(key)
        return cached
    n_codes = n_leaves * n_leaves
    flat: Optional[Tuple]
    if unique_nodes:
        pp = _pattern_pairs(pattern, steps, leaf_assign.size)
        if pp is None:
            flat = None
        else:
            src, dst, sid = pp
            la = leaf_assign[src]
            lb = leaf_assign[dst]
            lo = np.minimum(la, lb)
            hi = np.maximum(la, lb)
            # sort-based dedup over (step, leaf-pair) codes: same sorted
            # unique codes a dense boolean scatter would produce, but
            # O(pairs log pairs) instead of O(steps * n_leaves^2) — the
            # dense array dominated build time on wide topologies
            ucodes = np.unique(sid * n_codes + lo * n_leaves + hi)
            step_of = ucodes // n_codes
            rem = ucodes - step_of * n_codes
            boundaries = np.flatnonzero(np.diff(step_of)) + 1
            offsets = np.concatenate(
                (np.zeros(1, dtype=np.int64), boundaries)
            )
            flat = (
                rem // n_leaves,
                rem % n_leaves,
                offsets,
                tuple(int(s) for s in step_of[offsets]),
            )
    else:
        per_step = leaf_pair_steps(
            pattern, steps, node_arr, leaf_assign, n_leaves, unique_nodes
        )
        la_parts: List[np.ndarray] = []
        lb_parts: List[np.ndarray] = []
        seg_idx: List[int] = []
        offs: List[int] = []
        pos = 0
        for i, meta in enumerate(per_step):
            if meta is None or meta[0].size == 0:
                continue
            la_parts.append(meta[0])
            lb_parts.append(meta[1])
            seg_idx.append(i)
            offs.append(pos)
            pos += meta[0].size
        if not la_parts:
            flat = None
        else:
            flat = (
                np.concatenate(la_parts),
                np.concatenate(lb_parts),
                np.asarray(offs, dtype=np.int64),
                tuple(seg_idx),
            )
    if len(_LEAF_FLAT_CACHE) >= _LEAF_FLAT_CACHE_MAX:
        _LEAF_FLAT_CACHE.popitem(last=False)
    _LEAF_FLAT_CACHE[key] = flat
    return flat


def leaf_pair_cost(
    view,
    node_arr: np.ndarray,
    pattern: CommunicationPattern,
    steps: Tuple,
    contention: ContentionModel,
    weight_by_msize: bool,
    unique_nodes: bool = True,
) -> float:
    """Eq. 6 total of ``pattern`` on ``node_arr`` under ``view``.

    ``view`` is a :class:`~repro.cluster.state.ClusterState` or
    :class:`~repro.cluster.state.CommOverlay` — anything exposing
    ``topology``, ``leaf_comm`` and ``leaf_comm_share()``. Pass
    ``unique_nodes=False`` for rank layouts that place several ranks on
    one node, so intra-node pairs are recognised by node id rather than
    by rank.
    """
    topo = view.topology
    leaf_assign = topo.leaf_of_node[node_arr]
    lca_levels = topo.leaf_lca_levels()
    share = view.leaf_comm_share()
    comm = view.leaf_comm
    sizes = topo.leaf_sizes
    if not is_legacy():
        flat = _leaf_pair_flat(
            pattern, steps, node_arr, leaf_assign, topo.n_leaves, unique_nodes
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
        # identical elementwise arithmetic to the per-step loop below;
        # reduceat takes each segment's exact max, and the final
        # accumulation walks segments in the same step order, so the
        # result is bit-identical to the legacy evaluation.
        cross = share_a + share_b + weight * (comm[ula] + comm[ulb]) / (
            sizes[ula] + sizes[ulb]
        )
        c = np.where(ula == ulb, share_a, cross)
        worst = np.maximum.reduceat(2 * lvl * (1.0 + c), offsets)
        total = 0.0
        for k, i in enumerate(seg_idx):
            step = steps[i]
            step_weight = step.msize if weight_by_msize else 1.0
            total += float(worst[k]) * step_weight * step.repeat
        return total
    per_step = leaf_pair_steps(
        pattern, steps, node_arr, leaf_assign, topo.n_leaves, unique_nodes
    )
    total = 0.0
    for step, meta in zip(steps, per_step):
        if meta is None:
            continue
        ula, ulb = meta
        if ula.size == 0:  # every pair was intra-node: the step is free
            continue
        lvl = lca_levels[ula, ulb]
        share_a = share[ula]
        share_b = share[ulb]
        if contention.per_level:
            weight = contention.shared_weight(lvl)
        else:
            weight = contention.uplink_discount
        # mirror contention_factor() operation-for-operation so the two
        # paths agree bitwise
        cross = share_a + share_b + weight * (comm[ula] + comm[ulb]) / (
            sizes[ula] + sizes[ulb]
        )
        c = np.where(ula == ulb, share_a, cross)
        d = 2 * lvl
        worst = float((d * (1.0 + c)).max())
        step_weight = step.msize if weight_by_msize else 1.0
        total += worst * step_weight * step.repeat
    return total
