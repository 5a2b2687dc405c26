"""I/O-aware allocation — paper §7 future work, implemented.

The conclusion proposes "I/O-aware scheduling algorithms that consider
I/O patterns in addition to communication patterns". With
:class:`~repro.cluster.job.JobKind.IO` jobs tracked per leaf switch
(``L_io``, maintained by :class:`~repro.cluster.state.ClusterState`
exactly like ``L_comm``), the natural generalization of Algorithm 1
scores each leaf by a *weighted* interference ratio::

    score(L) = w_comm * (L_comm/L_busy) + w_io * (L_io/L_busy)
               + L_busy/L_nodes

A communication-intensive job weights communication load heavily and
I/O load lightly (they still share switch buffers); an I/O-intensive
job does the reverse — I/O-heavy neighbours compete for the same
storage paths through the leaf switch. Compute jobs fill the
*highest*-scored switches, preserving quiet ones, as in the paper.

Because the paper only *proposes* this direction (it appears in no
result table), the allocator is excluded from ``PAPER_ALLOCATORS``;
it is catalogued in ``docs/allocators.md`` under the *extension*
family with its ``cross_weight`` tunable.
"""

from __future__ import annotations

import numpy as np

from ..cluster.job import Job, JobKind
from ..cluster.state import ClusterState, Takes
from .base import (
    Allocator,
    AllocationError,
    fill_takes,
    find_lowest_level_switch,
    leaves_below,
    ordered_takes,
)

__all__ = ["IOAwareAllocator"]


class IOAwareAllocator(Allocator):
    """Greedy allocation over a combined communication + I/O score.

    Parameters
    ----------
    cross_weight:
        How much the *other* interference type counts (0 = ignore it,
        1 = as important as the job's own type). Default 0.25.
    """

    name = "io-aware"

    def __init__(self, cross_weight: float = 0.25) -> None:
        if not 0.0 <= cross_weight <= 1.0:
            raise ValueError(f"cross_weight must be in [0, 1], got {cross_weight}")
        self.cross_weight = float(cross_weight)

    def _scores(self, state: ClusterState, leaves: np.ndarray, kind: JobKind) -> np.ndarray:
        busy = state.leaf_busy_cached()[leaves]
        sizes = state.topology.leaf_sizes[leaves]
        comm = state.leaf_comm[leaves]
        io = state.leaf_io[leaves]
        comm_share = np.divide(
            comm, busy, out=np.zeros(len(leaves), dtype=np.float64), where=busy > 0
        )
        io_share = np.divide(
            io, busy, out=np.zeros(len(leaves), dtype=np.float64), where=busy > 0
        )
        if kind is JobKind.IO:
            w_comm, w_io = self.cross_weight, 1.0
        else:  # COMM jobs and the compute branch both lead with comm load
            w_comm, w_io = 1.0, self.cross_weight
        return w_comm * comm_share + w_io * io_share + busy / sizes

    def select(self, state: ClusterState, job: Job) -> Takes:
        """Fill leaves by combined communication + I/O score (§7)."""
        switch = find_lowest_level_switch(state, job.nodes)
        if switch is None:
            raise AllocationError(
                f"no switch with {job.nodes} free nodes for job {job.job_id}"
            )
        if switch.is_leaf:
            return Takes([switch.leaf_lo], [job.nodes])

        leaves = leaves_below(state, switch)
        scores = self._scores(state, leaves, job.kind)
        free = state.leaf_free[leaves]
        if job.kind is JobKind.COMPUTE:
            order = np.lexsort((leaves, free, -scores))
        else:
            order = np.lexsort((leaves, -free, scores))
        return fill_takes(leaves[order], ordered_takes(free[order], job.nodes))
