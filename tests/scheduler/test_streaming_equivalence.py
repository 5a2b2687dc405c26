"""Streaming-trace runs are bit-identical to materialized runs.

The PR 9 streaming mode feeds the engine arrivals from an iterator
instead of a list. Because a submit event always sorts after every
other event at its tick, pulling arrivals after draining the heap batch
is the same schedule as pre-sorting them into the heap — so a streaming
run must equal the materialized run of the same trace byte for byte,
across every policy × allocator combination, under faults, through a
mid-run checkpoint/resume, and with records diverted to a sink. The
policy × allocator grid also replays each trace through the legacy
full-pass scheduling loop (``force_full_pass``).
"""

import json

import pytest

from repro.cost.leafpair import clear_leaf_pair_cache
from repro.faults import FaultGeneratorConfig, generate_faults
from repro.scheduler.engine import EngineConfig, SchedulerEngine
from repro.scheduler.serialize import result_to_dict
from repro.topology import tree_from_leaf_sizes
from repro.workloads import assign_kinds_stream, single_pattern_mix, stream_trace

POLICIES = ("fifo", "backfill", "conservative")
ALLOCATORS = ("default", "greedy", "balanced", "adaptive")


def make_topo():
    return tree_from_leaf_sizes([4, 4, 4, 4])


def make_jobs(topo, n_jobs=60, seed=3):
    """A small comm-heavy workload, materialized once per test."""
    trace = stream_trace(
        n_jobs, seed=seed, max_nodes=topo.n_nodes, min_exp=0, max_exp=3
    )
    return list(
        assign_kinds_stream(
            trace,
            percent_comm=90.0,
            mix=single_pattern_mix("rhvd", 0.5),
            seed=seed,
        )
    )


def canon(result):
    return json.dumps(result_to_dict(result), sort_keys=True)


def run_materialized(topo, jobs, allocator, policy, *, faults=None, full_pass=False):
    """A list-fed run; ``full_pass`` selects the legacy full-pass loop."""
    clear_leaf_pair_cache()
    cfg = EngineConfig(policy=policy, force_full_pass=full_pass)
    return SchedulerEngine(topo, allocator, cfg).run(jobs, faults=faults)


def run_streaming(topo, jobs, allocator, policy, *, faults=None):
    clear_leaf_pair_cache()
    engine = SchedulerEngine(topo, allocator, EngineConfig(policy=policy))
    return engine.run(stream=iter(jobs), faults=faults)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("allocator", ALLOCATORS)
def test_streaming_matches_materialized_and_legacy(policy, allocator):
    topo = make_topo()
    jobs = make_jobs(topo)
    materialized = canon(run_materialized(topo, jobs, allocator, policy))
    streaming = canon(run_streaming(topo, jobs, allocator, policy))
    full_pass = canon(
        run_materialized(topo, jobs, allocator, policy, full_pass=True)
    )
    assert streaming == materialized
    assert streaming == full_pass


@pytest.mark.parametrize("policy", POLICIES)
def test_streaming_matches_materialized_under_faults(policy):
    topo = make_topo()
    jobs = make_jobs(topo)
    horizon = 1.5 * max(j.submit_time for j in jobs) + 1000.0
    faults = generate_faults(
        topo, FaultGeneratorConfig(rate=2.0, horizon=horizon, seed=11)
    )
    cfg = EngineConfig(policy=policy, interrupt_policy="requeue")
    clear_leaf_pair_cache()
    materialized = SchedulerEngine(topo, "adaptive", cfg).run(jobs, faults=faults)
    clear_leaf_pair_cache()
    streaming = SchedulerEngine(topo, "adaptive", cfg).run(
        stream=iter(jobs), faults=faults
    )
    assert canon(streaming) == canon(materialized)


@pytest.mark.parametrize("stop_after", [1, 5, 20, 60])
def test_streaming_checkpoint_resume_bit_identical(stop_after):
    """Satellite (c): pause a streaming run anywhere, resume with a
    fresh iterator of the same trace, land on the identical result."""
    topo = make_topo()
    jobs = make_jobs(topo)
    baseline = canon(run_streaming(topo, jobs, "adaptive", "backfill"))

    clear_leaf_pair_cache()
    engine = SchedulerEngine(topo, "adaptive", EngineConfig(policy="backfill"))
    paused = engine.run(stream=iter(jobs), stop_after=stop_after)
    if paused is not None:
        assert canon(paused) == baseline
        return
    snap = engine.snapshot()
    assert "stream" in snap
    assert snap["stream"]["consumed"] >= 0
    fresh = SchedulerEngine.from_snapshot(snap)
    resumed = fresh.run(resume_from=snap, stream=iter(jobs))
    assert canon(resumed) == baseline


def test_materialized_snapshot_has_no_stream_key():
    """Checkpoints of list-fed runs stay byte-identical to pre-PR 9."""
    topo = make_topo()
    jobs = make_jobs(topo, n_jobs=30)
    engine = SchedulerEngine(topo, "default", EngineConfig(policy="fifo"))
    paused = engine.run(jobs, stop_after=3)
    assert paused is None
    assert "stream" not in engine.snapshot()


def test_record_sink_diverts_records():
    topo = make_topo()
    jobs = make_jobs(topo, n_jobs=40)
    baseline = run_materialized(topo, jobs, "balanced", "backfill")

    sunk = []
    clear_leaf_pair_cache()
    engine = SchedulerEngine(topo, "balanced", EngineConfig(policy="backfill"))
    result = engine.run(stream=iter(jobs), record_sink=sunk.append)
    assert result.records == []
    # the sink receives records in finish order; SimulationResult sorts
    # by job id — compare on the sorted view
    sunk.sort(key=lambda r: r.job.job_id)
    assert len(sunk) == len(baseline.records)
    for got, want in zip(sunk, baseline.records):
        assert got.job.job_id == want.job.job_id
        assert got.start_time == want.start_time
        assert got.finish_time == want.finish_time


def test_jobs_and_stream_are_mutually_exclusive():
    topo = make_topo()
    jobs = make_jobs(topo, n_jobs=5)
    engine = SchedulerEngine(topo, "default", EngineConfig(policy="fifo"))
    with pytest.raises(ValueError, match="not both"):
        engine.run(jobs, stream=iter(jobs))


def test_streaming_resume_requires_stream():
    topo = make_topo()
    jobs = make_jobs(topo, n_jobs=30)
    engine = SchedulerEngine(topo, "default", EngineConfig(policy="fifo"))
    paused = engine.run(stream=iter(jobs), stop_after=2)
    assert paused is None
    snap = engine.snapshot()
    fresh = SchedulerEngine.from_snapshot(snap)
    with pytest.raises(ValueError, match="stream"):
        fresh.run(resume_from=snap)


def test_materialized_resume_rejects_stream():
    topo = make_topo()
    jobs = make_jobs(topo, n_jobs=30)
    engine = SchedulerEngine(topo, "default", EngineConfig(policy="fifo"))
    paused = engine.run(jobs, stop_after=2)
    assert paused is None
    snap = engine.snapshot()
    fresh = SchedulerEngine.from_snapshot(snap)
    with pytest.raises(ValueError):
        fresh.run(resume_from=snap, stream=iter(jobs))


def test_stream_validates_submit_order():
    topo = make_topo()
    jobs = make_jobs(topo, n_jobs=5)
    shuffled = [jobs[1], jobs[0]] + jobs[2:]
    engine = SchedulerEngine(topo, "default", EngineConfig(policy="fifo"))
    with pytest.raises(ValueError, match="non-decreasing"):
        engine.run(stream=iter(shuffled))


def test_stream_validates_job_size():
    topo = make_topo()
    jobs = make_jobs(topo, n_jobs=5)
    big = jobs[0].__class__(
        job_id=99,
        submit_time=jobs[-1].submit_time + 1.0,
        nodes=topo.n_nodes + 1,
        runtime=10.0,
    )
    engine = SchedulerEngine(topo, "default", EngineConfig(policy="fifo"))
    with pytest.raises(ValueError):
        engine.run(stream=iter(jobs + [big]))
