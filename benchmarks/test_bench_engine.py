"""End-to-end engine throughput benchmarks and the PR 4 regression gate.

Two jobs:

* time a whole-trace replay (seeded ``stream_trace`` workload, Theta
  shape, backfill + adaptive — the configuration ``BENCH_PR4.json`` is
  committed against) under pytest-benchmark;
* fail CI if jobs/sec regresses more than 2x below the committed
  ``BENCH_PR4.json`` smoke baseline — machines differ, a 2x cliff does
  not happen by scheduling noise. The gate runs bare and with the full
  observability stack on.

The ``verify_incremental`` self-check over the first 500 jobs of this
workload with node faults is a correctness check, not a benchmark; it
lives in the tier-1 suite (``tests/scheduler/test_verify_incremental_faults.py``).

Scale knob: ``REPRO_BENCH_E2E_JOBS`` (default 2000, matching the smoke
section of ``BENCH_PR4.json``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.cost import clear_leaf_pair_cache
from repro.scheduler.engine import EngineConfig, SchedulerEngine
from repro.topology import theta_like
from repro.workloads import single_pattern_mix, stream_trace
from repro.workloads.classify import assign_kinds

BENCH_PR4 = Path(__file__).resolve().parent.parent / "BENCH_PR4.json"


def e2e_n_jobs(default: int = 2000) -> int:
    return int(os.environ.get("REPRO_BENCH_E2E_JOBS", default))


@pytest.fixture(scope="module")
def workload():
    trace = list(stream_trace(e2e_n_jobs()))
    return assign_kinds(
        trace, percent_comm=90.0, mix=single_pattern_mix("rhvd"), seed=2
    )


def run_trace(jobs, *, config=None, faults=None):
    clear_leaf_pair_cache()
    cfg = config or EngineConfig(policy="backfill")
    engine = SchedulerEngine(theta_like(), "adaptive", cfg)
    return engine.run(jobs, faults=faults)


def test_bench_e2e_backfill_adaptive(benchmark, workload):
    result = benchmark.pedantic(
        lambda: run_trace(workload), rounds=1, iterations=1, warmup_rounds=0
    )
    assert len(result.records) == len(workload)


def test_e2e_regression_vs_committed_baseline(workload):
    """The optimized engine must stay within 2x of the committed
    smoke-scale jobs/sec; anything slower is a real regression."""
    if not BENCH_PR4.exists():
        pytest.skip("no committed BENCH_PR4.json baseline")
    baseline = json.loads(BENCH_PR4.read_text())
    smoke = baseline["smoke"]["adaptive"]["new"]
    expected_scale = baseline["smoke"]["n_jobs"]
    if e2e_n_jobs() != expected_scale:
        pytest.skip(
            f"baseline was committed at {expected_scale} jobs, "
            f"running {e2e_n_jobs()}"
        )
    t0 = time.perf_counter()
    result = run_trace(workload)
    seconds = time.perf_counter() - t0
    jobs_per_sec = len(workload) / seconds
    assert len(result.records) == len(workload)
    assert jobs_per_sec * 2.0 >= smoke["jobs_per_sec"], (
        f"end-to-end throughput regressed: {jobs_per_sec:.0f} jobs/s vs "
        f"committed {smoke['jobs_per_sec']:.0f} jobs/s baseline"
    )


def test_e2e_regression_with_observability(workload):
    """The same 2x throughput gate, but with the full observability stack
    on: perf counters collected and every hot-path span traced. Keeping
    this under the same gate as the bare run bounds the instrumentation
    overhead — if tracing ever makes the engine 2x slower than the
    committed baseline, this fails before users feel it."""
    from repro.obs import SpanTracer, validate_spans
    from repro.obs import runtime as obs_runtime

    if not BENCH_PR4.exists():
        pytest.skip("no committed BENCH_PR4.json baseline")
    baseline = json.loads(BENCH_PR4.read_text())
    smoke = baseline["smoke"]["adaptive"]["new"]
    expected_scale = baseline["smoke"]["n_jobs"]
    if e2e_n_jobs() != expected_scale:
        pytest.skip(
            f"baseline was committed at {expected_scale} jobs, "
            f"running {e2e_n_jobs()}"
        )
    tracer = SpanTracer()
    cfg = EngineConfig(policy="backfill", collect_perf=True)
    t0 = time.perf_counter()
    with obs_runtime.tracing(tracer):
        result = run_trace(workload, config=cfg)
    seconds = time.perf_counter() - t0
    jobs_per_sec = len(workload) / seconds
    assert len(result.records) == len(workload)
    # the instrumentation must have actually fired
    assert result.perf["counters"]["engine.batches"] > 0
    assert tracer.spans
    validate_spans(tracer.spans)
    assert jobs_per_sec * 2.0 >= smoke["jobs_per_sec"], (
        f"throughput with observability on regressed: {jobs_per_sec:.0f} "
        f"jobs/s vs committed {smoke['jobs_per_sec']:.0f} jobs/s baseline"
    )
