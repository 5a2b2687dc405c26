"""Incremental scheduling passes are bit-identical to full passes.

``EngineConfig(force_full_pass=True)`` runs the legacy scheduling
loop: every event batch gets a from-scratch policy scan over rebuilt
running-job views, never skipped or extended. These properties pin the
default engine (skipped passes, suffix-extended passes, carried policy
state) to it byte for byte: same start/finish times, same node arrays,
same Eq. 6 cost dicts, same serialized digest. Fault traces and mid-run
checkpoint/resume are included because the dirty-bit machinery must
also observe mutations that do not go through the scheduler (node
failures, interrupted jobs, restored state).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CommComponent, Job, JobKind
from repro.cost.leafpair import clear_leaf_pair_cache
from repro.faults import FaultGeneratorConfig, generate_faults
from repro.patterns import RecursiveDoubling, RecursiveHalvingVectorDoubling
from repro.scheduler.engine import EngineConfig, SchedulerEngine
from repro.scheduler.serialize import result_to_dict
from repro.topology import tree_from_leaf_sizes

policies = st.sampled_from(["fifo", "backfill", "conservative"])
allocators = st.sampled_from(["default", "greedy", "balanced", "adaptive"])


@st.composite
def workloads(draw):
    leaf_sizes = draw(
        st.lists(st.integers(min_value=2, max_value=10), min_size=1, max_size=5)
    )
    topo = tree_from_leaf_sizes(leaf_sizes)
    n_jobs = draw(st.integers(min_value=1, max_value=20))
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


def run_fast(topo, jobs, allocator, policy, *, faults=None, config=None):
    cfg = config or EngineConfig(policy=policy)
    clear_leaf_pair_cache()
    engine = SchedulerEngine(topo, allocator, cfg)
    return engine.run(jobs, faults=faults)


def run_full_pass(topo, jobs, allocator, policy, *, faults=None, config=None):
    """The full-pass reference: a from-scratch pass per batch."""
    base = config or EngineConfig(policy=policy)
    cfg = EngineConfig(
        **{**base.__dict__, "force_full_pass": True}
    )
    clear_leaf_pair_cache()
    engine = SchedulerEngine(topo, allocator, cfg)
    return engine.run(jobs, faults=faults)


def assert_identical(fast, reference):
    assert len(fast.records) == len(reference.records)
    for a, b in zip(fast.records, reference.records):
        assert a.job.job_id == b.job.job_id
        assert a.start_time == b.start_time
        assert a.finish_time == b.finish_time
        assert np.array_equal(a.nodes, b.nodes)
        assert a.cost_jobaware == b.cost_jobaware
        assert a.cost_default == b.cost_default
    assert result_to_dict(fast) == result_to_dict(reference)


@given(workloads(), policies, allocators)
@settings(max_examples=50, deadline=None)
def test_fast_paths_match_legacy_full_pass(scenario, policy, allocator):
    topo, jobs = scenario
    fast = run_fast(topo, jobs, allocator, policy)
    reference = run_full_pass(topo, jobs, allocator, policy)
    assert_identical(fast, reference)


@given(workloads(), policies, allocators,
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_fast_paths_match_legacy_under_faults(scenario, policy, allocator, seed):
    """Fault events mutate state outside the scheduler: the dirty bit
    must pick them up."""
    topo, jobs = scenario
    horizon = 1.5 * max(j.submit_time for j in jobs) + 1000.0
    faults = generate_faults(
        topo, FaultGeneratorConfig(rate=3.0, horizon=horizon, seed=seed)
    )
    cfg = EngineConfig(policy=policy, interrupt_policy="requeue")
    fast = run_fast(topo, jobs, allocator, policy, faults=faults, config=cfg)
    reference = run_full_pass(topo, jobs, allocator, policy, faults=faults, config=cfg)
    assert_identical(fast, reference)


@given(workloads(), policies, allocators,
       st.integers(min_value=1, max_value=30), st.booleans())
@settings(max_examples=25, deadline=None)
def test_checkpoint_resume_matches_legacy(scenario, policy, allocator,
                                          stop_after, faulty):
    """Pausing mid-run discards the incremental pass/view caches; the
    resumed engine rebuilds them and must still land on the full-pass
    schedule exactly."""
    topo, jobs = scenario
    faults = None
    cfg = EngineConfig(policy=policy)
    if faulty:
        horizon = 1.5 * max(j.submit_time for j in jobs) + 1000.0
        faults = generate_faults(
            topo, FaultGeneratorConfig(rate=3.0, horizon=horizon, seed=11)
        )
        cfg = EngineConfig(policy=policy, interrupt_policy="requeue")
    clear_leaf_pair_cache()
    engine = SchedulerEngine(topo, allocator, cfg)
    paused = engine.run(jobs, faults=faults, stop_after=stop_after)
    if paused is None:
        snap = engine.snapshot()
        fresh = SchedulerEngine.from_snapshot(snap)
        fast = fresh.run(resume_from=snap)
    else:
        fast = paused  # finished before the pause point
    reference = run_full_pass(topo, jobs, allocator, policy, faults=faults, config=cfg)
    assert_identical(fast, reference)


@given(workloads(), policies, allocators)
@settings(max_examples=20, deadline=None)
def test_verify_incremental_self_check_passes(scenario, policy, allocator):
    """The engine's own cross-check mode (every incremental pass is
    recomputed from scratch and compared) never trips."""
    topo, jobs = scenario
    cfg = EngineConfig(policy=policy, verify_incremental=True)
    fast = run_fast(topo, jobs, allocator, policy, config=cfg)
    assert len(fast.records) == len(jobs)
