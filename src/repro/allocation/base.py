"""Allocator interface and shared tree-search helpers (paper §3.1, §4).

Every allocation algorithm in the paper starts the same way (line 2 of
Algorithms 1 and 2): find the *lowest-level* switch whose subtree has at
least the requested number of free nodes, best-fit among equals — this
is SLURM's ``topology/tree`` behaviour. If that switch is a leaf, the
request is served from it directly; otherwise the algorithms differ in
how they order and fill the leaf switches below it.

Allocators are stateless policy objects: they decide how many nodes
each leaf switch gives, in rank order — a
:class:`~repro.cluster.state.Takes` — and never mutate the
:class:`~repro.cluster.state.ClusterState`. The scheduler engine applies
the returned takes, and the state picks the node ids.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..cluster.job import Job
from ..cluster.state import ClusterState, Takes
from ..topology.tree import SwitchInfo

__all__ = [
    "Allocator",
    "AllocationError",
    "find_lowest_level_switch",
    "find_lowest_level_switch_reference",
    "leaves_below",
    "ordered_takes",
    "fill_takes",
    "fill_in_order",
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

    Evaluates a whole level at once, and skips what the counts already
    decide:

    * the root's free count is the state's cached ``total_free``, so a
      request above it is infeasible at once, and a level whose largest
      switch is smaller than the request
      (:meth:`~repro.topology.tree.TreeTopology.level_capacity`) is
      passed over without reading it;
    * level-1 switch ``k`` is leaf ``k``
      (:class:`~repro.topology.tree.TreeTopology` numbers switches and
      leaves in one depth-first walk), so the leaf level is three numpy
      calls on ``leaf_free`` itself: a feasibility mask, the infeasible
      leaves pushed to the int64 maximum, and ``argmin``;
    * the levels between the leaves and the root read their switches'
      free counts off the version-cached prefix sum: a switch with leaf
      range ``[lo, hi)`` has ``cs[hi] - cs[lo]``;
    * the root spans every leaf, so it has ``total_free`` free, which
      holds the request: when no lower level does, the root is the
      answer, and no prefix sum is built for it.

    ``argmin`` over the feasible switches picks the same best-fit winner
    as the reference loop (numpy argmin returns the first minimum;
    switches within a level are stored in DFS = index order, matching
    the loop's strict ``<`` tie-breaking).
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
    result = None
    if n_nodes <= state.total_free:
        result = _lowest_feasible_switch(state, n_nodes)
    cache[key] = result
    return result


def _lowest_feasible_switch(state: ClusterState, n_nodes: int) -> SwitchInfo:
    """:func:`find_lowest_level_switch` for a request the root can hold."""
    topo = state.topology
    for level in range(1, topo.height):
        if n_nodes > topo.level_capacity(level):
            continue
        if level == 1:
            free = state.leaf_free
            masked = np.where(free >= n_nodes, free, _INT64_MAX)
            leaf = int(masked.argmin())
            if masked[leaf] != _INT64_MAX:
                return topo.leaf(leaf)
            continue
        indices, leaf_lo, leaf_hi = topo.level_switch_arrays(level)
        cs = state.leaf_free_cumsum()
        frees = cs[leaf_hi] - cs[leaf_lo]
        feasible = frees >= n_nodes
        if feasible.any():
            masked = np.where(feasible, frees, _INT64_MAX)
            return topo.switch(int(indices[int(masked.argmin())]))
    return topo.root


def leaves_below(state: ClusterState, switch: SwitchInfo) -> np.ndarray:
    """Leaf indices under ``switch`` that have at least one free node."""
    lo = switch.leaf_lo
    below = state.leaf_free[lo : switch.leaf_hi].nonzero()[0]
    if lo:
        below += lo
    return below


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
    # minimum(maximum(...)) is np.clip without its per-call dtype checks
    return np.minimum(np.maximum(n_nodes - before, 0), free_ordered)


def fill_takes(ordered: np.ndarray, counts: np.ndarray) -> Takes:
    """Takes of a fill: ``ordered`` leaves (rank order) minus the zero counts."""
    used = counts > 0
    return Takes(ordered[used], counts[used])


def fill_in_order(leaves: np.ndarray, free: np.ndarray, n_nodes: int) -> Takes:
    """Takes of filling ``n_nodes`` from ``leaves`` in order: whole leaves, then the rest.

    ``free`` holds each leaf's free count, all positive, in the same
    (rank) order, and sums to at least ``n_nodes``. The result equals
    ``fill_takes(leaves, ordered_takes(free, n_nodes))``, from one
    cumulative sum and one binary search: every leaf before the first
    whose running total reaches ``n_nodes`` gives all its free nodes,
    that leaf gives what is left, and the leaves after it give none.
    """
    total = free.cumsum()
    last = int(total.searchsorted(n_nodes))
    counts = free[: last + 1].copy()
    counts[last] = n_nodes - (int(total[last - 1]) if last else 0)
    return Takes(leaves[: last + 1], counts)


class Allocator(ABC):
    """Node-selection policy.

    Subclasses implement :meth:`select`, returning the placement's
    :class:`~repro.cluster.state.Takes` in rank order. :meth:`allocate`
    wraps it with common feasibility checks.
    """

    #: registry name, e.g. ``"greedy"``
    name: str = "abstract"

    def allocate(self, state: ClusterState, job: Job) -> Takes:
        """Choose where ``job.nodes`` ranks run; raises :class:`AllocationError`.

        Returns per-leaf takes in rank order; does not mutate ``state``.
        :meth:`ClusterState.allocate` turns them into node ids.
        """
        self.precheck(state, job)
        takes = self.select(state, job)
        return self.postcheck(job, takes)

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

    def postcheck(self, job: Job, takes: Takes) -> Takes:
        """Guard against a policy returning the wrong allocation size."""
        n_nodes = takes.n_nodes
        if n_nodes != job.nodes:
            raise AllocationError(
                f"{self.name} returned {n_nodes} nodes for a "
                f"{job.nodes}-node request (internal error)"
            )
        return takes

    @abstractmethod
    def select(self, state: ClusterState, job: Job) -> Takes:
        """Policy body; preconditions (enough free nodes) already checked."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
