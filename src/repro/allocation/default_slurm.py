"""SLURM's default topology-aware allocation (paper §3.1).

The ``topology/tree`` + ``select/linear`` combination: find the lowest-
level switch with enough free nodes, then fill its leaf switches in
*best-fit* order — leaves with the fewest free nodes first — to limit
resource fragmentation. Job kind is ignored; this is the baseline every
experiment compares against.
"""

from __future__ import annotations

from ..cluster.job import Job
from ..cluster.state import ClusterState, Takes
from .base import (
    Allocator,
    AllocationError,
    fill_in_order,
    find_lowest_level_switch,
    leaves_below,
)

__all__ = ["DefaultSlurmAllocator"]


class DefaultSlurmAllocator(Allocator):
    """Best-fit leaf filling under the lowest feasible switch."""

    name = "default"

    def select(self, state: ClusterState, job: Job) -> Takes:
        """Best-fit-fill leaves under the lowest feasible switch."""
        switch = find_lowest_level_switch(state, job.nodes)
        if switch is None:
            raise AllocationError(
                f"no switch with {job.nodes} free nodes for job {job.job_id}"
            )
        if switch.is_leaf:
            return Takes([switch.leaf_lo], [job.nodes])

        leaves = leaves_below(state, switch)
        free = state.leaf_free[leaves]
        # best-fit: fewest free nodes first; leaves ascend and the sort
        # is stable, so the leaf index breaks ties
        order = free.argsort(kind="stable")
        return fill_in_order(leaves[order], free[order], job.nodes)
