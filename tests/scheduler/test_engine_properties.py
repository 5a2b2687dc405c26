"""Property-based engine tests: invariants on random workloads/topologies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CommComponent, Job, JobKind
from repro.patterns import RecursiveDoubling, RecursiveHalvingVectorDoubling
from repro.scheduler import EngineConfig, simulate
from repro.topology import tree_from_leaf_sizes


@st.composite
def workloads(draw):
    leaf_sizes = draw(
        st.lists(st.integers(min_value=2, max_value=10), min_size=1, max_size=5)
    )
    topo = tree_from_leaf_sizes(leaf_sizes)
    n_jobs = draw(st.integers(min_value=1, max_value=25))
    jobs = []
    t = 0.0
    for i in range(1, n_jobs + 1):
        t += draw(st.floats(min_value=0.0, max_value=100.0))
        nodes = draw(st.integers(min_value=1, max_value=topo.n_nodes))
        runtime = draw(st.floats(min_value=1.0, max_value=500.0))
        if nodes > 1 and draw(st.booleans()):
            pattern = draw(st.sampled_from(
                [RecursiveDoubling(), RecursiveHalvingVectorDoubling()]
            ))
            fraction = draw(st.floats(min_value=0.1, max_value=0.9))
            jobs.append(Job(i, t, nodes, runtime, JobKind.COMM,
                            (CommComponent(pattern, fraction),)))
        else:
            jobs.append(Job(i, t, nodes, runtime))
    return topo, jobs


policies = st.sampled_from(["fifo", "backfill", "conservative"])
allocators = st.sampled_from(["default", "greedy", "balanced", "adaptive"])


@given(workloads(), policies, allocators)
@settings(max_examples=60, deadline=None)
def test_all_jobs_complete_with_consistent_times(scenario, policy, allocator):
    topo, jobs = scenario
    cfg = EngineConfig(policy=policy, validate_state=True)
    res = simulate(topo, jobs, allocator, config=cfg)
    assert len(res) == len(jobs)
    for record in res.records:
        assert record.start_time >= record.job.submit_time - 1e-9
        assert record.finish_time >= record.start_time
        assert len(record.nodes) == record.job.nodes
        assert len(set(record.nodes.tolist())) == record.job.nodes


@given(workloads(), allocators)
@settings(max_examples=40, deadline=None)
def test_node_seconds_bounded_by_capacity(scenario, allocator):
    """Total delivered node-seconds can never exceed machine-seconds."""
    topo, jobs = scenario
    res = simulate(topo, jobs, allocator)
    t0 = min(r.start_time for r in res.records)
    machine_seconds = topo.n_nodes * (res.makespan - t0)
    assert res.node_seconds.sum() <= machine_seconds + 1e-6


@given(workloads())
@settings(max_examples=40, deadline=None)
def test_fifo_starts_in_submit_order(scenario):
    topo, jobs = scenario
    res = simulate(topo, jobs, "default", config=EngineConfig(policy="fifo"))
    ordered = sorted(res.records, key=lambda r: (r.job.submit_time, r.job.job_id))
    starts = [r.start_time for r in ordered]
    assert all(a <= b + 1e-9 for a, b in zip(starts, starts[1:]))


@given(workloads())
@settings(max_examples=30, deadline=None)
def test_default_run_is_eq7_neutral(scenario):
    """Under the default allocator, every runtime equals the logged one."""
    topo, jobs = scenario
    res = simulate(topo, jobs, "default")
    for record in res.records:
        # start + runtime - start is subject to float rounding
        assert record.execution_time == pytest.approx(record.job.runtime, rel=1e-12)


@given(workloads(), policies, allocators)
@settings(max_examples=30, deadline=None)
def test_simulation_fully_deterministic(scenario, policy, allocator):
    """Identical inputs produce bit-identical schedules — required for
    the paper's fair cross-allocator comparisons."""
    topo, jobs = scenario
    cfg = EngineConfig(policy=policy)
    a = simulate(topo, jobs, allocator, config=cfg)
    b = simulate(topo, jobs, allocator, config=cfg)
    for ra, rb in zip(a.records, b.records):
        assert ra.start_time == rb.start_time
        assert ra.finish_time == rb.finish_time
        assert ra.nodes.tolist() == rb.nodes.tolist()
