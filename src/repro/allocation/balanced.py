"""Balanced allocation — paper Algorithm 2 (§4.2).

Communication-intensive jobs are placed in *powers of two per leaf
switch*: the allocation chunk size ``S`` starts at the request size and
is halved whenever the current leaf cannot hold it — and never grows
back, matching the paper's Figure 4 subdivision tree and the Table 2
worked example (512 nodes over leaves with 160/150/100/80/70/50/40 free
-> 128/128/64/64/64/32/32 allocated).

Power-of-two chunks keep the early (long-distance) steps of recursive
doubling/halving algorithms *intra-switch*, cutting inter-switch
traffic. Whatever the power-of-two sweep could not place is satisfied
in a second pass over the leaves in reverse order, using their leftover
free nodes.

Compute-intensive jobs are packed into the *fullest* leaves first
(ascending free count) with no power-of-two constraint, preserving
large free blocks for communication-intensive work.
"""

from __future__ import annotations

import numpy as np

from ..cluster.job import Job
from ..cluster.state import ClusterState, Takes
from .._validation import floor_power_of_two
from ..topology.tree import SwitchInfo
from .base import (
    Allocator,
    AllocationError,
    fill_takes,
    find_lowest_level_switch,
    leaves_below,
    ordered_takes,
)

__all__ = ["BalancedAllocator", "balanced_split", "balanced_split_reference"]

#: sentinel chunk exponent for empty leaves — larger than any real free
#: count's floor-log2, so it never shrinks the running chunk minimum.
_EMPTY_LEAF_EXP = 63


def balanced_split_reference(free_counts: np.ndarray, n_nodes: int) -> np.ndarray:
    """Sweep-loop form of Algorithm 2 lines 8-28 (the vectorized oracle).

    The first sweep walks the leaves halving the chunk ``S`` until it
    fits; the remainder sweep walks the leaves in reverse, consuming
    leftover free nodes.
    """
    free = np.asarray(free_counts, dtype=np.int64).copy()
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if free.sum() < n_nodes:
        raise ValueError(f"free counts sum to {free.sum()} < request {n_nodes}")
    taken = np.zeros_like(free)
    # S starts at the request, rounded down to a power of two for the
    # rare non-power-of-two request (>= 90% of log jobs are powers of two).
    chunk = floor_power_of_two(int(n_nodes))
    remaining = int(n_nodes)
    for i in range(free.size):
        if remaining == 0:
            break
        if free[i] == 0:
            continue
        while chunk > free[i]:
            chunk //= 2
        take = min(chunk, remaining)
        taken[i] += take
        free[i] -= take
        remaining -= take
    if remaining > 0:
        for i in range(free.size - 1, -1, -1):
            take = min(int(free[i]), remaining)
            taken[i] += take
            free[i] -= take
            remaining -= take
            if remaining == 0:
                break
    if remaining > 0:  # unreachable given the sum precondition
        raise ValueError("balanced_split failed to place all nodes")
    return taken


def balanced_split(free_counts: np.ndarray, n_nodes: int) -> np.ndarray:
    """Pure power-of-two split logic (lines 8-28 of Algorithm 2).

    ``free_counts`` must already be in the traversal order (descending
    free nodes for the paper's comm-intensive branch). Returns the nodes
    taken per leaf, same order. This is factored out of the allocator so
    the Table 2 example and property tests can exercise it directly.

    Vectorized equivalent of :func:`balanced_split_reference`. The chunk
    trajectory is a running minimum — ``S`` never grows back and on each
    non-empty leaf it halves down to the largest power of two that fits,
    so ``S_i = min(S_{i-1}, 2^floor(log2(free_i)))`` — computable with
    one ``minimum.accumulate`` over the floor-log2 exponents (empty
    leaves keep a sentinel exponent so they leave ``S`` untouched,
    mirroring the loop's ``continue``). Both sweeps then reduce to the
    prefix-sum take formula of :func:`ordered_takes`: greedy fill against
    capacity ``S_i`` forward, leftover free nodes in reverse.
    """
    free = np.asarray(free_counts, dtype=np.int64)
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if free.sum() < n_nodes:
        raise ValueError(f"free counts sum to {free.sum()} < request {n_nodes}")
    # floor(log2(free)) via frexp — exact for integers (log2 rounds).
    exps = np.where(
        free > 0, np.frexp(free.astype(np.float64))[1] - 1, _EMPTY_LEAF_EXP
    )
    start_exp = floor_power_of_two(int(n_nodes)).bit_length() - 1
    chunk_exp = np.minimum.accumulate(np.minimum(exps, start_exp))
    capacity = np.where(free > 0, np.int64(1) << chunk_exp, 0)
    taken = ordered_takes(capacity, n_nodes)
    remaining = int(n_nodes - taken.sum())
    if remaining > 0:
        leftover = free - taken
        taken = taken + ordered_takes(leftover[::-1], remaining)[::-1]
    return taken


class BalancedAllocator(Allocator):
    """Power-of-two-per-switch placement for communication-intensive jobs."""

    name = "balanced"

    def select(self, state: ClusterState, job: Job) -> Takes:
        """Place ``job`` in power-of-two chunks per switch (Alg. 2)."""
        switch = find_lowest_level_switch(state, job.nodes)
        if switch is None:
            raise AllocationError(
                f"no switch with {job.nodes} free nodes for job {job.job_id}"
            )
        return self.select_under(state, job, switch)

    def select_under(self, state: ClusterState, job: Job, switch: SwitchInfo) -> Takes:
        """Algorithm 2 body below an already-chosen switch.

        Split from :meth:`select` so the adaptive allocator can run the
        lowest-level switch search once and reuse it for both candidates.
        """
        if switch.is_leaf:
            return Takes([switch.leaf_lo], [job.nodes])

        leaves = leaves_below(state, switch)
        free = state.leaf_free[leaves]
        if job.is_comm_intensive:
            # descending free count; leaf index breaks ties
            order = np.lexsort((leaves, -free))
            return fill_takes(leaves[order], balanced_split(free[order], job.nodes))

        # compute-intensive: pack fullest leaves first, no constraint
        order = np.lexsort((leaves, free))
        return fill_takes(leaves[order], ordered_takes(free[order], job.nodes))
