"""Round-robin spread allocation (baseline; cf. SLURM ``--distribution``).

Schedulers commonly offer a *spread* placement that stripes a job
across as many switches as possible — good for I/O parallelism and
memory-bandwidth balance, bad for collectives (every pair crosses a
switch). Implemented here as the adversarial counterpart of the
balanced allocator: it maximizes switch-spread instead of minimizing
it, which makes it a sharp baseline for showing *why* the paper's
power-of-two blocking matters. Not in the paper's comparison, so it is
excluded from ``PAPER_ALLOCATORS``; catalogued in ``docs/allocators.md``
under the *baseline* family.
"""

from __future__ import annotations

import numpy as np

from ..cluster.job import Job
from ..cluster.state import ClusterState, Takes
from .base import (
    Allocator,
    AllocationError,
    fill_takes,
    find_lowest_level_switch,
    leaves_below,
)

__all__ = ["SpreadAllocator"]


class SpreadAllocator(Allocator):
    """Stripe the request round-robin over the leaf switches."""

    name = "spread"

    def select(self, state: ClusterState, job: Job) -> Takes:
        """Stripe ``job`` round-robin across leaves under the lowest feasible switch."""
        switch = find_lowest_level_switch(state, job.nodes)
        if switch is None:
            raise AllocationError(
                f"no switch with {job.nodes} free nodes for job {job.job_id}"
            )
        if switch.is_leaf:
            return Takes([switch.leaf_lo], [job.nodes])

        leaves = leaves_below(state, switch)
        free = state.leaf_free[leaves].copy()
        # round-robin: one node per leaf per sweep, most-free leaves first
        order = np.lexsort((leaves, -free))
        return fill_takes(leaves[order], self._stripe_counts(free[order], job.nodes))

    @staticmethod
    def _stripe_counts(remaining_free: np.ndarray, n_nodes: int) -> np.ndarray:
        """Per-leaf counts of the round-robin stripe, in traversal order.

        The sweep loop gives every leaf at most one node per pass, so
        after ``s`` complete sweeps leaf ``i`` holds ``min(free_i, s)``
        nodes. Closed form: binary-search the largest ``s`` whose total
        still fits the request, then hand the leftover out one node each
        to the first eligible leaves of sweep ``s + 1`` — exactly where
        the loop would have stopped mid-sweep.
        """
        if remaining_free.sum() < n_nodes:  # pragma: no cover - precondition
            raise AllocationError("spread failed to place all nodes")
        lo, hi = 0, int(remaining_free.max(initial=0))
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if int(np.minimum(remaining_free, mid).sum()) <= n_nodes:
                lo = mid
            else:
                hi = mid - 1
        counts = np.minimum(remaining_free, lo).astype(np.int64)
        leftover = n_nodes - int(counts.sum())
        if leftover > 0:
            eligible = np.flatnonzero(remaining_free > lo)[:leftover]
            counts[eligible] += 1
        return counts
