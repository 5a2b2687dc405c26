"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterState, CommComponent, Job, JobKind
from repro.patterns import RecursiveDoubling
from repro.topology import three_level_tree, tree_from_leaf_sizes, two_level_tree


@pytest.fixture
def paper_topology():
    """The Figure 2 / Figure 5 topology: two 4-node leaves under one root."""
    return two_level_tree(n_leaves=2, nodes_per_leaf=4)


@pytest.fixture
def figure5_state(paper_topology):
    """Figure 5 occupancy: Job1 on n0,n1,n4,n5; Job2 on n2,n3 (both comm)."""
    state = ClusterState(paper_topology)
    state.allocate(1, [0, 1, 4, 5], JobKind.COMM)
    state.allocate(2, [2, 3], JobKind.COMM)
    return state

@pytest.fixture
def three_level():
    """Root -> 2 pods -> 3 leaves x 4 nodes (24 nodes)."""
    return three_level_tree(n_pods=2, leaves_per_pod=3, nodes_per_leaf=4)


@pytest.fixture
def medium_topology():
    """Five unequal leaves — exercises best-fit and balanced splits."""
    return tree_from_leaf_sizes([8, 16, 4, 32, 12])


def make_comm_job(job_id=1, nodes=8, runtime=3600.0, fraction=0.7, pattern=None):
    """Helper: a communication-intensive job with one component."""
    pattern = pattern or RecursiveDoubling()
    return Job(
        job_id=job_id,
        submit_time=0.0,
        nodes=nodes,
        runtime=runtime,
        kind=JobKind.COMM,
        comm=(CommComponent(pattern, fraction),),
    )


def make_compute_job(job_id=1, nodes=8, runtime=3600.0, submit_time=0.0):
    """Helper: a compute-intensive job."""
    return Job(
        job_id=job_id,
        submit_time=submit_time,
        nodes=nodes,
        runtime=runtime,
        kind=JobKind.COMPUTE,
    )


@pytest.fixture
def comm_job():
    return make_comm_job()


@pytest.fixture
def compute_job():
    return make_compute_job()


def gather(state, takes):
    """Node ids ``takes`` get on ``state``, in rank order; ``state`` is not mutated."""
    return state.copy().allocate(-1, takes, JobKind.COMPUTE)
