"""Fault-aware allocation biased away from failure-correlated leaves.

Vardas et al. ("Improving the Performance and Resilience of MPI
Parallel Jobs with Topology and Fault-Aware Process Placement", arXiv
2012.14757) combine topology awareness with node failure statistics so
placements avoid hardware with a bad track record. This allocator does
the fat-tree analogue: the greedy (Algorithm 1) contention score of
each leaf is augmented with the leaf's share of the cluster's
availability history — :attr:`~repro.cluster.state.ClusterState.leaf_faults`,
the monotonically growing per-leaf count of node DOWN transitions
maintained by the fault model (PR 2's ``mark_down``).

Leaves are ranked by::

    score(L) = ratio(L) + bias * leaf_faults(L) / max(1, sum(leaf_faults))

Communication-intensive jobs fill in *ascending* score (quiet AND
historically reliable leaves first — a failure-correlated leaf is
effectively more contended, because a fault there kills the whole job);
compute-intensive jobs fill in *descending* score, preserving the
reliable quiet leaves exactly as Algorithm 1 preserves the quiet ones.
With no fault history (or ``bias=0``) the ranking degrades gracefully
to plain greedy.
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
    ordered_takes,
)

__all__ = ["FaultAwareAllocator"]


class FaultAwareAllocator(Allocator):
    """Greedy contention order blended with per-leaf failure history.

    Parameters
    ----------
    bias:
        Weight of the failure-history share relative to the Eq. 1
        contention ratio. ``0`` reduces to plain greedy; large values
        make reliability dominate contention.
    """

    name = "fault-aware"

    def __init__(self, bias: float = 1.0) -> None:
        if bias < 0:
            raise ValueError(f"bias must be >= 0, got {bias}")
        self.bias = float(bias)

    def select(self, state: ClusterState, job: Job) -> Takes:
        """Fill leaves in blended contention + failure-history order."""
        switch = find_lowest_level_switch(state, job.nodes)
        if switch is None:
            raise AllocationError(
                f"no switch with {job.nodes} free nodes for job {job.job_id}"
            )
        if switch.is_leaf:
            return Takes([switch.leaf_lo], [job.nodes])

        leaves = leaves_below(state, switch)
        ratio = state.communication_ratio_cached()[leaves]
        total_faults = int(state.leaf_faults.sum())
        fault_share = state.leaf_faults[leaves] / max(1, total_faults)
        score = ratio + self.bias * fault_share
        free = state.leaf_free[leaves]
        if job.is_comm_intensive:
            # ascending blended score; among equals prefer more free nodes
            order = np.lexsort((leaves, -free, score))
        else:
            order = np.lexsort((leaves, free, -score))
        return fill_takes(leaves[order], ordered_takes(free[order], job.nodes))
