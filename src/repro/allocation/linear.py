"""Topology-blind ``select/linear`` baseline (ablation).

Plain SLURM without the ``topology/tree`` plugin: take the lowest-id
free nodes regardless of switch boundaries — every leaf with free nodes,
in index order, filled in turn. Not part of the paper's
comparison (their default already includes the topology plugin) and
therefore excluded from ``PAPER_ALLOCATORS``, but a useful ablation
showing how much the tree-aware baseline itself buys. Catalogued in
``docs/allocators.md`` under the *baseline* family.
"""

from __future__ import annotations

import numpy as np

from ..cluster.job import Job
from ..cluster.state import ClusterState, Takes
from .base import Allocator, fill_takes, ordered_takes

__all__ = ["LinearAllocator"]


class LinearAllocator(Allocator):
    """First-fit by node id, ignoring the topology."""

    name = "linear"

    def select(self, state: ClusterState, job: Job) -> Takes:
        """Take the first ``job.nodes`` free node ids, topology-blind.

        Leaves in index order, each giving all its free nodes until the
        request is met: node ids are the lowest free ones per leaf, so
        these are exactly the first free ids of the machine.
        """
        leaves = np.flatnonzero(state.leaf_free > 0)
        return fill_takes(leaves, ordered_takes(state.leaf_free[leaves], job.nodes))
