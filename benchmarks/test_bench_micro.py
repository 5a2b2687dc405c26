"""Micro-benchmarks: allocator and cost-model throughput.

These are the hot paths of a continuous run (§7 of DESIGN.md): one
allocation decision plus one Eq. 6 evaluation per job start. Timed at
Mira scale (49k nodes, 136 leaves, 16384-node job) to catch performance
regressions in the vectorized kernels, and on Theta (16-node leaves)
for both sides of the one-take branch: a job one leaf holds, and one
that spans several, including the multi-leaf switch search and Eq. 6
miss of a greedy start spread over about 13 leaves. The online
controller replays a Theta log with a switch outage and must match the
batch engine's records.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.allocation import get_allocator
from repro.allocation.base import find_lowest_level_switch, find_lowest_level_switch_reference
from repro.cluster import ClusterState, CommComponent, Job, JobKind, Takes
from repro.cost import CostModel, clear_leaf_pair_cache, leafpair
from repro.faults import FaultEvent
from repro.patterns import RecursiveDoubling, RecursiveHalvingVectorDoubling
from repro.scheduler import (
    EasyBackfillPolicy,
    EngineConfig,
    JobQueue,
    RunningJobView,
    simulate,
)
from repro.scheduler.serialize import record_to_dict
from repro.slurm import SlurmCluster
from repro.topology import mira_like, theta_like
from repro.workloads import assign_kinds, generate_log, single_pattern_mix
from repro.workloads.logs import THETA_SPEC


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
    takes = benchmark(lambda: allocator.allocate(mira_state, job))
    assert takes.n_nodes == 16384


def test_bench_cost_eval_16k_rd(benchmark, mira_state):
    model = CostModel()
    trial = mira_state.copy()
    nodes = trial.allocate(1, get_allocator("balanced").allocate(trial, big_job()), JobKind.COMM)
    cost = benchmark(lambda: model.allocation_cost(trial, nodes, RecursiveDoubling()))
    assert cost > 0


def test_bench_cost_eval_16k_rd_cold(benchmark, mira_state):
    """First-evaluation cost: every cache cleared before each call."""
    model = CostModel()
    trial = mira_state.copy()
    nodes = trial.allocate(1, get_allocator("balanced").allocate(trial, big_job()), JobKind.COMM)

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
    nodes = trial.allocate(1, get_allocator("balanced").allocate(trial, big_job()), JobKind.COMM)

    def cold():
        clear_leaf_pair_cache()
        trial._cost_cache.clear()
        trial._derived_cache.clear()
        return model.allocation_cost(trial, nodes, pattern)

    cost = benchmark(cold)
    with mock.patch.object(
        leafpair, "_run_candidates", wraps=leafpair._run_candidates
    ) as spy:
        assert cold() == cost
    assert spy.called
    assert cost == model.allocation_cost_pairwise(trial, nodes, pattern)


def test_bench_cost_eval_16k_rd_pairwise(benchmark, mira_state):
    """The seed's per-node-pair evaluation, kept as the baseline the
    leaf-pair kernel's speedup is measured against."""
    model = CostModel()
    trial = mira_state.copy()
    nodes = trial.allocate(1, get_allocator("balanced").allocate(trial, big_job()), JobKind.COMM)
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
    takes = get_allocator("default").allocate(mira_state, big_job())
    view = benchmark(lambda: mira_state.comm_overlay(takes, JobKind.COMM))
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


@pytest.mark.parametrize("length", [16, 1245])
def test_bench_easy_scan_theta_queue(benchmark, length):
    """One full EASY pass behind a blocked head on Theta (4,392 nodes).
    At 16 queued jobs the scan walks every job; at 1,245 (the mean full
    scan of the overloaded SWF replay) it prefilters the queue's arrays
    with one mask first. The picks equal a walk over a plain list."""
    head = Job(0, 0.0, 4000, 3600.0)
    jobs = [head] + [
        Job(t.job_id, t.submit_time, t.nodes, t.runtime)
        for t in generate_log(THETA_SPEC, length - 1, 0)
    ]
    queue = JobQueue(jobs)
    now = jobs[-1].submit_time
    views = [RunningJobView(now + 60.0 * (k + 1), 256) for k in range(16)]
    policy = EasyBackfillPolicy()
    picks, _ = benchmark(lambda: policy.begin_pass(now, queue, 300, views))
    assert picks == policy.select_startable(now, jobs, 300, views)


@pytest.fixture(scope="module")
def theta_state():
    """Half-occupied Theta (16-node leaves), a quarter of the jobs COMM."""
    topo = theta_like()
    state = ClusterState(topo)
    rng = np.random.default_rng(2)
    busy = rng.choice(topo.n_nodes, size=topo.n_nodes // 2, replace=False)
    for k, start in enumerate(range(0, busy.size - 15, 16)):
        kind = JobKind.COMM if k % 4 == 0 else JobKind.COMPUTE
        state.allocate(10_000 + k, busy[start : start + 16], kind)
    return state


@pytest.mark.parametrize("size", [8, 64])
def test_bench_allocate_release_theta(benchmark, theta_state, size):
    """Start and finish one job on Theta: 8 nodes fit one leaf (one take,
    the scalar branch), 64 nodes span several (the vectorized path)."""
    job = big_job(size)
    takes = get_allocator("default").allocate(theta_state, job)
    assert (takes.single is not None) == (size == 8)
    before = theta_state.leaf_free.tolist()

    def cycle():
        nodes = theta_state.allocate(1, takes, JobKind.COMM)
        theta_state.release(1)
        return nodes

    nodes = benchmark(cycle)
    assert nodes.size == size
    assert theta_state.leaf_free.tolist() == before
    theta_state.validate()


def test_bench_cost_eval_one_take_theta(benchmark, theta_state):
    """Eq. 6 of an 8-rank rhvd job on one Theta leaf, cache cleared before
    each call: the closed form, equal to the per-pair reference."""
    model = CostModel()
    pattern = RecursiveHalvingVectorDoubling()
    trial = theta_state.copy()
    leaf = int(np.flatnonzero(trial.leaf_free >= 8)[0])
    takes = Takes([leaf], [8])
    nodes = trial.allocate(1, takes, JobKind.COMM)

    def miss():
        trial._cost_cache.clear()
        return model.allocation_cost(trial, takes, pattern)

    cost = benchmark(miss)
    assert cost > 0
    assert cost == model.allocation_cost_pairwise(trial, nodes, pattern)


def test_bench_switch_search_multi_leaf_theta(benchmark, theta_state):
    """The switch search of a 152-node request on Theta, caches cleared
    before each call as after a mutation: no leaf holds it, and the root
    spans every leaf, so it is read from ``total_free``. Equal to the
    per-switch reference loop."""

    def search():
        theta_state._derived_cache.clear()
        theta_state.total_free
        return find_lowest_level_switch(theta_state, 152)

    switch = benchmark(search)
    assert switch == theta_state.topology.root
    assert switch == find_lowest_level_switch_reference(theta_state, 152)


def test_bench_cost_eval_multi_take_theta(benchmark, theta_state):
    """Eq. 6 miss of a greedy 152-rank rhvd job spread over about 13 Theta
    leaves, priced on its overlay as the engine does, cache cleared before
    each call: the sort-free kernel, equal to the per-pair reference."""
    model = CostModel()
    pattern = RecursiveHalvingVectorDoubling()
    takes = get_allocator("greedy").allocate(theta_state, big_job(152))
    assert takes.leaves.size > 1
    view = theta_state.comm_overlay(takes, JobKind.COMM)

    def miss():
        theta_state._cost_cache.clear()
        return model.allocation_cost(view, takes, pattern)

    cost = benchmark(miss)
    trial = theta_state.copy()
    nodes = trial.allocate(1, takes, JobKind.COMM)
    assert cost == model.allocation_cost_pairwise(trial, nodes, pattern)


def test_bench_controller_replay_theta(benchmark):
    """``SlurmCluster`` replays 300 Theta jobs (half of them rhvd) under
    greedy, with one leaf switch down from the 150th submission to the
    200th: its history equals the batch engine's records. Submit times
    are rounded to 1/1024 s, so ``advance`` lands on each exactly."""
    topo = theta_like()
    trace = generate_log(THETA_SPEC, 300, seed=1)
    jobs = [
        dataclasses.replace(job, submit_time=round(job.submit_time * 1024) / 1024)
        for job in assign_kinds(trace, percent_comm=50, mix=single_pattern_mix("rhvd"), seed=2)
    ]
    leaf = tuple(topo.leaf_nodes(7).tolist())
    faults = [
        FaultEvent(jobs[150].submit_time + 0.5, "down", leaf, cause="switch"),
        FaultEvent(jobs[200].submit_time + 0.5, "up", leaf, cause="switch"),
    ]
    script = sorted(
        [(job.submit_time, job) for job in jobs] + [(f.time, f) for f in faults],
        key=lambda item: item[0],
    )
    assert len({t for t, _ in script}) == len(script)

    def replay():
        cluster = SlurmCluster(topo, "greedy")
        for t, item in script:
            cluster.advance(t - cluster.now)
            if isinstance(item, FaultEvent):
                command = cluster.scontrol_down if item.is_down else cluster.scontrol_resume
                command(list(item.nodes))
            else:
                comm = item.comm[0] if item.comm else None
                cluster.sbatch(
                    nodes=item.nodes,
                    runtime=item.runtime,
                    kind=item.kind.value,
                    pattern=comm.pattern if comm else None,
                    comm_fraction=comm.fraction if comm else 0.7,
                )
        cluster.drain()
        return cluster.history

    history = benchmark(replay)
    batch = simulate(topo, jobs, "greedy", config=EngineConfig(), faults=faults)
    assert any(r.requeues for r in batch.records)
    assert len(history) == len(batch.records) == len(jobs)
    assert {r.job.job_id: record_to_dict(r) for r in history} == {
        r.job.job_id: record_to_dict(r) for r in batch.records
    }
