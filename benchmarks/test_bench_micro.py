"""Micro-benchmarks: allocator and cost-model throughput.

These are the hot paths of a continuous run (§7 of DESIGN.md): one
allocation decision plus one Eq. 6 evaluation per job start. Timed at
Mira scale (49k nodes, 136 leaves, 16384-node job) to catch performance
regressions in the vectorized kernels.
"""

from unittest import mock

import numpy as np
import pytest

from repro.allocation import get_allocator
from repro.cluster import ClusterState, CommComponent, Job, JobKind
from repro.cost import CostModel, clear_leaf_pair_cache, leafpair
from repro.patterns import RecursiveDoubling, RecursiveHalvingVectorDoubling
from repro.topology import mira_like


@pytest.fixture(scope="module")
def mira_state():
    topo = mira_like()
    state = ClusterState(topo)
    rng = np.random.default_rng(0)
    # 40% background occupancy, half comm-intensive
    nodes = rng.choice(topo.n_nodes, size=int(0.4 * topo.n_nodes), replace=False)
    half = nodes.size // 2
    state.allocate(9001, nodes[:half], JobKind.COMM)
    state.allocate(9002, nodes[half:], JobKind.COMPUTE)
    return state


def big_job(nodes=16384):
    return Job(1, 0.0, nodes, 3600.0, JobKind.COMM,
               (CommComponent(RecursiveHalvingVectorDoubling(), 0.7),))


@pytest.mark.parametrize("name", ["default", "greedy", "balanced", "adaptive"])
def test_bench_allocate_16k_on_mira(benchmark, mira_state, name):
    allocator = get_allocator(name)
    job = big_job()
    nodes = benchmark(lambda: allocator.allocate(mira_state, job))
    assert len(nodes) == 16384


def test_bench_cost_eval_16k_rd(benchmark, mira_state):
    model = CostModel()
    trial = mira_state.copy()
    nodes = get_allocator("balanced").allocate(trial, big_job())
    trial.allocate(1, nodes, JobKind.COMM)
    cost = benchmark(lambda: model.allocation_cost(trial, nodes, RecursiveDoubling()))
    assert cost > 0


def test_bench_cost_eval_16k_rd_cold(benchmark, mira_state):
    """First-evaluation cost: every cache cleared before each call."""
    model = CostModel()
    trial = mira_state.copy()
    nodes = get_allocator("balanced").allocate(trial, big_job())
    trial.allocate(1, nodes, JobKind.COMM)

    def cold():
        clear_leaf_pair_cache()
        trial._cost_cache.clear()
        trial._derived_cache.clear()
        return model.allocation_cost(trial, nodes, RecursiveDoubling())

    assert benchmark(cold) > 0


def test_bench_cost_eval_16k_rhvd_cold(benchmark, mira_state):
    """Cold Eq. 6 of a balanced 16384-rank rhvd placement. Its nodes
    fall into few enough leaf runs that the kernel prices it from one
    representative rank per block region, not from every rank pair."""
    model = CostModel()
    pattern = RecursiveHalvingVectorDoubling()
    trial = mira_state.copy()
    nodes = get_allocator("balanced").allocate(trial, big_job())
    trial.allocate(1, nodes, JobKind.COMM)

    def cold():
        clear_leaf_pair_cache()
        trial._cost_cache.clear()
        trial._derived_cache.clear()
        return model.allocation_cost(trial, nodes, pattern)

    cost = benchmark(cold)
    with mock.patch.object(
        leafpair, "_run_representatives", wraps=leafpair._run_representatives
    ) as spy:
        assert cold() == cost
    assert spy.called
    assert cost == model.allocation_cost_pairwise(trial, nodes, pattern)


def test_bench_cost_eval_16k_rd_pairwise(benchmark, mira_state):
    """The seed's per-node-pair evaluation, kept as the baseline the
    leaf-pair kernel's speedup is measured against."""
    model = CostModel()
    trial = mira_state.copy()
    nodes = get_allocator("balanced").allocate(trial, big_job())
    trial.allocate(1, nodes, JobKind.COMM)
    cost = benchmark(
        lambda: model.allocation_cost_pairwise(trial, nodes, RecursiveDoubling())
    )
    assert cost > 0


def test_bench_state_copy_mira(benchmark, mira_state):
    """Full-state snapshot (the counterfactual path before comm_overlay)."""
    clone = benchmark(mira_state.copy)
    assert clone.total_free == mira_state.total_free


def test_bench_comm_overlay_mira(benchmark, mira_state):
    """The overlay view that replaced copy() in counterfactual pricing."""
    nodes = np.flatnonzero(mira_state.node_state == 0)[:16384]
    view = benchmark(lambda: mira_state.comm_overlay(nodes, JobKind.COMM))
    assert view.leaf_comm.sum() > mira_state.leaf_comm.sum()


@pytest.fixture(scope="module")
def crowded_state():
    """Mira with ~1500 small running jobs: the shape that exposed the
    O(running_jobs x n_nodes) cost of the old per-record jobs_on scan."""
    topo = mira_like()
    state = ClusterState(topo)
    rng = np.random.default_rng(1)
    nodes = rng.choice(topo.n_nodes, size=int(0.9 * topo.n_nodes), replace=False)
    job_id = 1
    pos = 0
    while pos + 29 <= nodes.size:
        state.allocate(job_id, nodes[pos : pos + 29], JobKind.COMPUTE)
        job_id += 1
        pos += 29
    return state


def test_bench_jobs_on_index(benchmark, crowded_state):
    """PR 4 path: read the node->job index, no per-record scan."""
    probe = np.arange(0, crowded_state.topology.n_nodes, 97)
    held = benchmark(lambda: crowded_state.jobs_on(probe))
    assert len(held) > 0
