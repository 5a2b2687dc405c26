"""Allocator interface and shared tree-search helpers (paper §3.1, §4).

Every allocation algorithm in the paper starts the same way (line 2 of
Algorithms 1 and 2): find the *lowest-level* switch whose subtree has at
least the requested number of free nodes, best-fit among equals — this
is SLURM's ``topology/tree`` behaviour. If that switch is a leaf, the
request is served from it directly; otherwise the algorithms differ in
how they order and fill the leaf switches below it.

Allocators are stateless policy objects: they *choose* nodes but never
mutate the :class:`~repro.cluster.state.ClusterState`; the scheduler
engine applies the returned node ids.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np

from ..cluster.job import Job
from ..cluster.state import ClusterState
from ..topology.tree import SwitchInfo

__all__ = [
    "Allocator",
    "AllocationError",
    "find_lowest_level_switch",
    "find_lowest_level_switch_reference",
    "leaves_below",
    "gather_nodes",
    "ordered_takes",
]


class AllocationError(RuntimeError):
    """Raised when a request cannot be satisfied from the current state."""


_INT64_MAX = np.iinfo(np.int64).max


def find_lowest_level_switch_reference(
    state: ClusterState, n_nodes: int
) -> Optional[SwitchInfo]:
    """Per-switch loop the vectorized search below must reproduce exactly."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    topo = state.topology
    for level in range(1, topo.height + 1):
        best: Optional[SwitchInfo] = None
        best_free = -1
        for info in topo.switches_at_level(level):
            free = state.subtree_free(info)
            if free >= n_nodes and (best is None or free < best_free):
                best = info
                best_free = free
        if best is not None:
            return best
    return None


def find_lowest_level_switch(state: ClusterState, n_nodes: int) -> Optional[SwitchInfo]:
    """SLURM ``topology/tree`` switch selection (§3.1).

    Scan levels bottom-up; at the first level containing a switch with at
    least ``n_nodes`` free in its subtree, return the *best-fit* such
    switch (fewest free nodes, ties broken by switch index). Returns
    ``None`` when even the root cannot satisfy the request.

    Evaluates a whole level at once from the version-cached free-count
    prefix sum: subtree free of a switch with leaf range ``[lo, hi)`` is
    ``cs[hi] - cs[lo]``, and ``argmin`` over the feasible switches picks
    the same best-fit winner as the reference loop (numpy argmin returns
    the first minimum; switches within a level are stored in DFS = index
    order, matching the loop's strict ``<`` tie-breaking).
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    # pure function of (cluster free counts, n_nodes); the engine's
    # default-placement counterfactual re-asks the exact question the
    # job-aware allocator just answered, so memoize per state version.
    # _derived_cache is cleared on every mutation, making entries
    # implicitly version-tagged; the sentinel distinguishes a cached
    # None (request unsatisfiable) from a cache miss.
    cache = state._derived_cache
    key = f"lls:{n_nodes}"
    hit = cache.get(key, cache)
    if hit is not cache:
        return hit  # type: ignore[return-value]
    topo = state.topology
    cs = state.leaf_free_cumsum()
    result: Optional[SwitchInfo] = None
    for level in range(1, topo.height + 1):
        indices, leaf_lo, leaf_hi = topo.level_switch_arrays(level)
        if indices.size == 0:
            continue
        frees = cs[leaf_hi] - cs[leaf_lo]
        feasible = frees >= n_nodes
        if not feasible.any():
            continue
        masked = np.where(feasible, frees, _INT64_MAX)
        result = topo.switches_at_level(level)[int(np.argmin(masked))]
        break
    cache[key] = result
    return result


def leaves_below(state: ClusterState, switch: SwitchInfo) -> np.ndarray:
    """Leaf indices under ``switch`` that have at least one free node."""
    leaf_range = np.arange(switch.leaf_lo, switch.leaf_hi, dtype=np.int64)
    return leaf_range[state.leaf_free[leaf_range] > 0]


def gather_nodes(
    state: ClusterState, per_leaf: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """Materialize node ids from (leaf index, count) takes, in order.

    The order of ``per_leaf`` is the *rank order* of the allocation: the
    cost model maps ranks to nodes positionally, so which leaf serves
    which rank block matters (balanced allocation relies on it).
    """
    # one allocatability scan for the whole gather instead of one per
    # leaf inside free_nodes_on_leaf — the per-call numpy overhead
    # dominated at ~15 leaves per allocation. Scan the contiguous node
    # range spanned by the takes once, then slice each leaf's free ids
    # out of the sorted result with binary searches.
    takes = [(int(leaf), int(count)) for leaf, count in per_leaf if count > 0]
    if not takes:
        return np.empty(0, dtype=np.int64)
    allocatable = state.allocatable_mask()
    offsets = state.topology.leaf_node_offset
    leaf_arr = np.asarray([t[0] for t in takes], dtype=np.int64)
    count_arr = np.asarray([t[1] for t in takes], dtype=np.int64)
    span_lo = int(offsets[leaf_arr.min()])
    span_hi = int(offsets[leaf_arr.max() + 1])
    free_ids = np.flatnonzero(allocatable[span_lo:span_hi])
    free_ids += span_lo
    lefts = free_ids.searchsorted(offsets[leaf_arr])
    rights = free_ids.searchsorted(offsets[leaf_arr + 1])
    avail = rights - lefts
    if np.any(count_arr > avail):
        bad = int(np.flatnonzero(count_arr > avail)[0])
        raise ValueError(
            f"leaf {leaf_arr[bad]} has {int(avail[bad])} free nodes, "
            f"requested {int(count_arr[bad])}"
        )
    # each take is the slice free_ids[lefts[k] : lefts[k] + count_arr[k]];
    # build all slice indices at once instead of concatenating per-leaf
    seg_start = np.cumsum(count_arr) - count_arr
    idx = np.repeat(lefts - seg_start, count_arr)
    idx += np.arange(int(count_arr.sum()), dtype=np.int64)
    return free_ids[idx]


def ordered_takes(free_ordered: np.ndarray, n_nodes: int) -> np.ndarray:
    """Per-leaf take counts when filling ``n_nodes`` in the given order.

    Vectorizes the classic fill loop — take everything free on each leaf
    until the remainder runs out, then the partial tail take::

        take_i = clip(n - sum(free_0..free_{i-1}), 0, free_i)

    via one cumulative sum. ``free_ordered`` is the free-node count of
    each candidate leaf *in rank order*; the result aligns with it.
    """
    free_ordered = np.asarray(free_ordered, dtype=np.int64)
    before = np.cumsum(free_ordered) - free_ordered
    return np.clip(n_nodes - before, 0, free_ordered)


class Allocator(ABC):
    """Node-selection policy.

    Subclasses implement :meth:`select`, returning node ids in rank
    order. :meth:`allocate` wraps it with common feasibility checks.
    """

    #: registry name, e.g. ``"greedy"``
    name: str = "abstract"

    def allocate(self, state: ClusterState, job: Job) -> np.ndarray:
        """Choose ``job.nodes`` free nodes; raises :class:`AllocationError`.

        Does not mutate ``state``.
        """
        self.precheck(state, job)
        nodes = self.select(state, job)
        return self.postcheck(job, nodes)

    def precheck(self, state: ClusterState, job: Job) -> None:
        """Global feasibility checks shared by every policy."""
        if job.nodes > state.topology.n_nodes:
            raise AllocationError(
                f"job {job.job_id} wants {job.nodes} nodes, cluster has "
                f"{state.topology.n_nodes}"
            )
        if job.nodes > state.total_free:
            raise AllocationError(
                f"job {job.job_id} wants {job.nodes} nodes, only "
                f"{state.total_free} free"
            )

    def postcheck(self, job: Job, nodes: np.ndarray) -> np.ndarray:
        """Guard against a policy returning the wrong allocation size."""
        if len(nodes) != job.nodes:
            raise AllocationError(
                f"{self.name} returned {len(nodes)} nodes for a "
                f"{job.nodes}-node request (internal error)"
            )
        return np.asarray(nodes, dtype=np.int64)

    @abstractmethod
    def select(self, state: ClusterState, job: Job) -> np.ndarray:
        """Policy body; preconditions (enough free nodes) already checked."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
