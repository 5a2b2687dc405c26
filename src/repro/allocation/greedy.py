"""Greedy allocation — paper Algorithm 1 (§4.1).

Leaf switches under the chosen switch are ranked by their
*communication ratio* (Eq. 1)::

    ratio(L) = L_comm / L_busy + L_busy / L_nodes

A low ratio means little contention and many free nodes. Communication-
intensive jobs fill leaves in *increasing* ratio order (least contended
first); compute-intensive jobs fill in *decreasing* order, preserving
the quiet switches for future communication-intensive jobs.
"""

from __future__ import annotations

import numpy as np

from ..cluster.job import Job
from ..cluster.state import ClusterState, Takes
from ..topology.tree import SwitchInfo
from .base import (
    Allocator,
    AllocationError,
    fill_in_order,
    find_lowest_level_switch,
    leaves_below,
)

__all__ = ["GreedyAllocator"]


class GreedyAllocator(Allocator):
    """Least-contended-first (comm) / most-contended-first (compute)."""

    name = "greedy"

    def select(self, state: ClusterState, job: Job) -> Takes:
        """Fill leaves in contention order under the lowest feasible switch (Alg. 1)."""
        switch = find_lowest_level_switch(state, job.nodes)
        if switch is None:
            raise AllocationError(
                f"no switch with {job.nodes} free nodes for job {job.job_id}"
            )
        return self.select_under(state, job, switch)

    def select_under(self, state: ClusterState, job: Job, switch: SwitchInfo) -> Takes:
        """Algorithm 1 body below an already-chosen switch.

        Split from :meth:`select` so the adaptive allocator can run the
        lowest-level switch search once and reuse it for both candidates.
        """
        if switch.is_leaf:
            return Takes([switch.leaf_lo], [job.nodes])

        leaves = leaves_below(state, switch)
        ratio = state.communication_ratio_cached()[leaves]
        free = state.leaf_free[leaves]
        # leaves ascend and lexsort is stable, so the lower leaf comes
        # first among equal keys
        if job.is_comm_intensive:
            # ascending ratio; among equals prefer more free nodes
            order = np.lexsort((-free, ratio))
        else:
            order = np.lexsort((free, -ratio))
        return fill_in_order(leaves[order], free[order], job.nodes)
