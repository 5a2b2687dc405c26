"""MC-style bounding-box contiguity allocation.

Bender et al. ("Communication-Aware Processor Allocation for
Supercomputers", arXiv cs/0407058) show that picking the placement that
minimizes the *average pairwise distance* of the allocated processors —
their MC ("Manhattan median/Cluster") family of bounding-box heuristics
— approximates the optimal communication-aware allocation within small
constant factors. This allocator projects that idea onto the fat-tree's
leaf line: leaf switches are points on a 1-D grid (inter-leaf traffic
always crosses the common spine, so leaf-index distance is a faithful
proxy for the tree distance the Eq. 2–6 model prices).

For every candidate *center* leaf, nodes are drawn from leaves in
ascending ``|leaf - center|`` shells (ties to the lower index, matching
MC's left-biased scan); the candidate whose filled shells minimize

    sum(take_i * |leaf_i - center|) + span_weight * (leaf span)

wins, with remaining ties going to the lower center index. The leaf
span term is the 1-D bounding box of the placement — MC1x1's objective.
Nodes are materialized in ascending leaf order, so ranks form one
contiguous block across the winning leaves.
"""

from __future__ import annotations

import numpy as np

from ..cluster.job import Job
from ..cluster.state import ClusterState, Takes
from .base import (
    Allocator,
    AllocationError,
    find_lowest_level_switch,
    leaves_below,
)

__all__ = ["ContiguousAllocator"]


class ContiguousAllocator(Allocator):
    """Minimal bounding-box placement around the best center leaf.

    Parameters
    ----------
    span_weight:
        Weight of the leaf-span (bounding-box width) term relative to
        the distance-weighted take sum. ``0`` ranks by pure Manhattan
        distance; larger values prefer tighter boxes even when a wider
        one has slightly cheaper shells.
    """

    name = "mc"

    def __init__(self, span_weight: float = 0.5) -> None:
        if span_weight < 0:
            raise ValueError(f"span_weight must be >= 0, got {span_weight}")
        self.span_weight = float(span_weight)

    def select(self, state: ClusterState, job: Job) -> Takes:
        """Scan every center leaf; fill distance shells; keep the best box."""
        switch = find_lowest_level_switch(state, job.nodes)
        if switch is None:
            raise AllocationError(
                f"no switch with {job.nodes} free nodes for job {job.job_id}"
            )
        if switch.is_leaf:
            return Takes([switch.leaf_lo], [job.nodes])

        leaves = leaves_below(state, switch)
        free = state.leaf_free[leaves].astype(np.int64)
        if leaves.size == 1:
            return Takes([int(leaves[0])], [job.nodes])

        # distance matrix: row c = |leaf - center_c| for every candidate
        # center; the composite key (distance, leaf index) reproduces
        # MC's ascending-shell, left-biased scan as a single argsort
        dist = np.abs(leaves[None, :] - leaves[:, None])
        key = dist * (int(leaves[-1]) + 2) + leaves[None, :]
        shell_order = np.argsort(key, axis=1, kind="stable")
        free_sorted = np.take_along_axis(
            np.broadcast_to(free, dist.shape), shell_order, axis=1
        )
        dist_sorted = np.take_along_axis(dist, shell_order, axis=1)
        before = np.cumsum(free_sorted, axis=1) - free_sorted
        takes = np.clip(job.nodes - before, 0, free_sorted)

        weighted = (takes * dist_sorted).sum(axis=1)
        used = takes > 0
        leaf_sorted = np.take_along_axis(
            np.broadcast_to(leaves, dist.shape), shell_order, axis=1
        )
        lo = np.where(used, leaf_sorted, np.iinfo(np.int64).max).min(axis=1)
        hi = np.where(used, leaf_sorted, -1).max(axis=1)
        score = weighted + self.span_weight * (hi - lo)
        center_row = int(np.argmin(score))  # first minimum = lowest center index

        row_used = used[center_row]
        chosen = leaf_sorted[center_row][row_used]
        chosen_takes = takes[center_row][row_used]
        # ranks in ascending leaf order: one contiguous rank block
        # across the winning box, with the shell fill's exact counts
        ascending = np.argsort(chosen)
        return Takes(chosen[ascending], chosen_takes[ascending])
