"""Cluster occupancy substrate: jobs and per-switch free/busy/comm state."""

from .job import CommComponent, Job, JobKind
from .state import (
    AVAIL_DOWN,
    AVAIL_DRAINING,
    AVAIL_UP,
    NODE_COMM,
    NODE_COMPUTE,
    NODE_FREE,
    NODE_IO,
    AllocationRecord,
    ClusterState,
    CommOverlay,
    Takes,
)

__all__ = [
    "CommComponent",
    "Job",
    "JobKind",
    "AllocationRecord",
    "ClusterState",
    "CommOverlay",
    "Takes",
    "NODE_FREE",
    "NODE_COMPUTE",
    "NODE_COMM",
    "NODE_IO",
    "AVAIL_UP",
    "AVAIL_DOWN",
    "AVAIL_DRAINING",
]
