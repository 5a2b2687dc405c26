"""Write a ``BENCH_PR1.json`` / ``BENCH_PR9.json`` snapshot.

Two modes:

* default — the PR 1 micro snapshot: hot paths of a continuous run (one
  Eq. 6 cost evaluation and one allocation decision per job start) on
  the paper's largest machine shape (49k nodes, 136 leaves, 16384-node
  RecursiveDoubling job), with the leaf-pair kernel's speedup over the
  per-node-pair baseline.
* ``--ladder`` — the PR 9 scale ladder: 100k/1M/10M-job rungs, each run
  in a *fresh subprocess* so peak RSS (a process-lifetime high-water
  mark) is the rung's own. Streaming rungs feed the engine from
  :func:`~repro.workloads.stream_trace` with a discarding record sink
  (the constant-memory path); materialized rungs pre-build the job list
  and accumulate records — the PR 4 ingestion path — and are capped at
  1M jobs (a 10M materialized list is the memory blow-up the streaming
  protocol exists to avoid). Streaming jobs/sec *includes* trace
  generation (inherent to the model); materialized jobs/sec excludes
  list construction, matching the PR 4 replay semantics — the reported
  streaming-vs-materialized speedup is therefore conservative. Also
  records a serial-vs-pooled sweep section and a
  streaming/materialized bit-identity smoke. Writes ``BENCH_PR9.json``.

``BENCH_PR4.json`` (an end-to-end replay on the incremental engine and
on the legacy full-pass engine it replaced) is no longer written by
this script; it stays committed as the frozen baseline of the
end-to-end throughput gate in ``test_bench_engine.py``.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [output.json]
    PYTHONPATH=src python benchmarks/run_bench.py --ladder [output.json]

Timings are medians over several repeats of best-effort wall-clock
loops (single-shot for the ladder rungs); treat them as trend
indicators, not lab-grade measurements.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.allocation import get_allocator
from repro.runs import atomic_write_text
from repro.cluster import ClusterState, CommComponent, Job, JobKind
from repro.cost import CostModel, clear_leaf_pair_cache
from repro.patterns import RecursiveDoubling, RecursiveHalvingVectorDoubling
from repro.topology import mira_like

JOB_NODES = 16384
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PR1.json"
DEFAULT_LADDER_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_PR9.json"

# Ladder rung profile: cheap enough that the 10M rung stays tractable on
# one core, while still exercising the comm-cost path on 10% of jobs.
LADDER_POLICY = "backfill"
LADDER_ALLOCATOR = "default"
LADDER_PERCENT_COMM = 10.0
LADDER_RUNGS = (
    ("streaming", 100_000),
    ("materialized", 100_000),
    ("streaming", 1_000_000),
    ("materialized", 1_000_000),
    ("streaming", 10_000_000),
)


def timeit(fn, *, repeats: int = 5, min_time: float = 0.05) -> float:
    """Median seconds per call (auto-scaled inner loop, warm start)."""
    fn()  # warm-up / JIT numpy caches
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time or calls >= 1_000_000:
            break
        calls *= 4
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def timeit_cold(fn, setup, *, repeats: int = 5) -> float:
    """Median seconds per call with ``setup`` run (untimed) before each."""
    samples = []
    for _ in range(repeats):
        setup()
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def build_state() -> ClusterState:
    topo = mira_like()
    state = ClusterState(topo)
    rng = np.random.default_rng(0)
    nodes = rng.choice(topo.n_nodes, size=int(0.4 * topo.n_nodes), replace=False)
    half = nodes.size // 2
    state.allocate(9001, nodes[:half], JobKind.COMM)
    state.allocate(9002, nodes[half:], JobKind.COMPUTE)
    return state


def records_identical(a, b) -> bool:
    for ra, rb in zip(a, b):
        if (
            ra.start_time != rb.start_time
            or ra.finish_time != rb.finish_time
            or not np.array_equal(ra.nodes, rb.nodes)
            or ra.cost_jobaware != rb.cost_jobaware
            or ra.cost_default != rb.cost_default
        ):
            return False
    return len(a) == len(b)


def ladder_stream(n_jobs: int):
    """The PR 9 ladder workload as a lazy stream (never materialized)."""
    from repro.workloads import single_pattern_mix, stream_trace
    from repro.workloads.classify import assign_kinds_stream

    return assign_kinds_stream(
        stream_trace(n_jobs),
        percent_comm=LADDER_PERCENT_COMM,
        mix=single_pattern_mix("rhvd"),
        seed=2,
    )


def run_ladder_rung(spec: dict) -> dict:
    """Run one ladder rung in *this* process and return its stats.

    Meant to be invoked via ``--ladder-rung`` in a fresh subprocess so
    ``peak_rss_bytes`` (a process-lifetime high-water mark) reflects
    only this rung's footprint. All numbers come from the recorder's
    snapshot — the same counters/derived values the metrics registry
    exports — not ad-hoc ``resource`` calls.
    """
    from repro.obs import PerfRecorder, collecting
    from repro.scheduler.engine import EngineConfig, SchedulerEngine
    from repro.topology import theta_like

    n_jobs = int(spec["n_jobs"])
    mode = spec["mode"]
    clear_leaf_pair_cache()
    engine = SchedulerEngine(
        theta_like(),
        spec.get("allocator", LADDER_ALLOCATOR),
        EngineConfig(policy=spec.get("policy", LADDER_POLICY)),
    )
    recorder = PerfRecorder()
    finished = 0

    def sink(record):
        nonlocal finished
        finished += 1

    if mode == "materialized":
        # The PR 4 ingestion path: job list in memory, records accumulated.
        jobs = list(ladder_stream(n_jobs))
        t0 = time.perf_counter()
        with collecting(recorder):
            result = engine.run(jobs)
        seconds = time.perf_counter() - t0
        finished = len(result.records)
        del result, jobs
    elif mode == "streaming":
        # Constant-memory path: lazy trace in, records diverted to a sink.
        t0 = time.perf_counter()
        with collecting(recorder):
            engine.run(stream=ladder_stream(n_jobs), record_sink=sink)
        seconds = time.perf_counter() - t0
    else:
        raise ValueError(f"unknown rung mode: {mode!r}")
    snap = recorder.snapshot()
    counters = snap["counters"]
    return {
        "mode": mode,
        "n_jobs": n_jobs,
        "seconds": seconds,
        "jobs_per_sec": n_jobs / seconds,
        "records": finished,
        "events": int(counters.get("engine.events", 0)),
        "event_batches": int(counters.get("engine.batches", 0)),
        "peak_rss_bytes": int(snap["derived"].get("peak_rss_bytes", 0)),
    }


def spawn_rung(spec: dict) -> dict:
    """Run one rung in a fresh interpreter; parse its JSON stats line."""
    import os
    import subprocess

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--ladder-rung", json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"rung {spec} failed (rc={proc.returncode}):\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ladder_identity_smoke(n_jobs: int = 3_000) -> dict:
    """Streaming == materialized engine on the ladder profile."""
    from repro.scheduler.engine import EngineConfig, SchedulerEngine
    from repro.topology import theta_like

    jobs = list(ladder_stream(n_jobs))

    def run(*, stream: bool):
        clear_leaf_pair_cache()
        cfg = EngineConfig(policy=LADDER_POLICY)
        engine = SchedulerEngine(theta_like(), LADDER_ALLOCATOR, cfg)
        if stream:
            records = []
            engine.run(stream=iter(jobs), record_sink=records.append)
            records.sort(key=lambda r: r.job.job_id)
            return records
        return engine.run(jobs).records

    streaming = run(stream=True)
    materialized = run(stream=False)
    return {
        "n_jobs": n_jobs,
        "streaming_vs_materialized": records_identical(streaming, materialized),
    }


def ladder_workers_section() -> dict:
    """Serial vs pooled sweep over the same grid."""
    from repro.experiments.sweeps import sweep

    grid = {"seed": list(range(8))}
    defaults = {"log": "theta", "n_jobs": 150, "percent_comm": 50.0,
                "policy": LADDER_POLICY}

    def timed(**kwargs):
        t0 = time.perf_counter()
        rows = sweep(grid, defaults=defaults, **kwargs)
        return rows, time.perf_counter() - t0

    print("  sweep 8 points x 2 allocators, serial ...", flush=True)
    serial_rows, serial_s = timed()
    print("  sweep pooled (4 workers) ...", flush=True)
    pooled_rows, pooled_s = timed(workers=4)

    return {
        "grid_points": len(grid["seed"]),
        "serial_seconds": serial_s,
        "pooled_seconds": pooled_s,
        "rows_identical": serial_rows == pooled_rows,
    }


def main_ladder(argv) -> int:
    out_path = Path(argv[2]) if len(argv) > 2 else DEFAULT_LADDER_OUTPUT
    print("PR 9 scale ladder (theta_like, backfill/default, 10% comm) ...")
    rungs = []
    for mode, n_jobs in LADDER_RUNGS:
        print(f"  rung: {mode} {n_jobs} jobs ...", flush=True)
        stats = spawn_rung({"mode": mode, "n_jobs": n_jobs,
                            "policy": LADDER_POLICY,
                            "allocator": LADDER_ALLOCATOR})
        rungs.append(stats)
        print(
            f"    {stats['jobs_per_sec']:.0f} jobs/s, "
            f"peak RSS {stats['peak_rss_bytes'] / 1e6:.0f} MB, "
            f"{stats['seconds']:.1f}s",
            flush=True,
        )

    print("bit-identity smoke (streaming vs materialized) ...")
    identity = ladder_identity_smoke()
    print(f"  {identity}")
    workers = ladder_workers_section()

    def rung(mode, n_jobs):
        return next(
            r for r in rungs if r["mode"] == mode and r["n_jobs"] == n_jobs
        )

    s1m = rung("streaming", 1_000_000)
    s10m = rung("streaming", 10_000_000)
    m1m = rung("materialized", 1_000_000)
    rss_ratio = s10m["peak_rss_bytes"] / s1m["peak_rss_bytes"]
    speedup = s1m["jobs_per_sec"] / m1m["jobs_per_sec"]
    criteria = {
        "rss_flat_1m_to_10m_ratio": rss_ratio,
        "rss_flat_1m_to_10m_pass": bool(rss_ratio <= 1.10),
        "streaming_rss_vs_materialized_at_1m": (
            s1m["peak_rss_bytes"] / m1m["peak_rss_bytes"]
        ),
        "speedup_vs_pr4_path_at_1m": speedup,
        "speedup_vs_pr4_path_target": 1.3,
        "speedup_vs_pr4_path_pass": bool(speedup >= 1.3),
        "bit_identical": bool(identity["streaming_vs_materialized"]),
        "workers_rows_identical": workers["rows_identical"],
    }
    snapshot = {
        "pr": 9,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workload": {
            "generator": "stream_trace",
            "topology": "theta_like",
            "policy": LADDER_POLICY,
            "allocator": LADDER_ALLOCATOR,
            "percent_comm": LADDER_PERCENT_COMM,
            "pattern": "rhvd",
            "kind_seed": 2,
            "note": (
                "materialized rungs cap at 1M jobs; streaming jobs/sec "
                "includes trace generation, materialized excludes it "
                "(PR 4 replay semantics), so the speedup is conservative"
            ),
        },
        "rungs": rungs,
        "identity": identity,
        "workers": workers,
        "criteria": criteria,
    }
    atomic_write_text(out_path, json.dumps(snapshot, indent=2) + "\n")
    print(json.dumps(criteria, indent=2))
    print(f"wrote {out_path}")
    return 0


def main(argv) -> int:
    if len(argv) > 1 and argv[1] == "--ladder-rung":
        print(json.dumps(run_ladder_rung(json.loads(argv[2]))))
        return 0
    if len(argv) > 1 and argv[1] == "--ladder":
        return main_ladder(argv)
    out_path = Path(argv[1]) if len(argv) > 1 else DEFAULT_OUTPUT
    state = build_state()
    job = Job(1, 0.0, JOB_NODES, 3600.0, JobKind.COMM,
              (CommComponent(RecursiveHalvingVectorDoubling(), 0.7),))
    model = CostModel()
    pattern = RecursiveDoubling()

    trial = state.copy()
    nodes = trial.allocate(1, get_allocator("balanced").allocate(trial, job), JobKind.COMM)

    def clear_all():
        clear_leaf_pair_cache()
        trial._cost_cache.clear()
        trial._derived_cache.clear()

    print(f"timing Eq. 6 evaluation ({JOB_NODES}-node RecursiveDoubling) ...")
    pairwise = timeit(
        lambda: model.allocation_cost_pairwise(trial, nodes, pattern), repeats=3
    )
    kernel_cold = timeit_cold(
        lambda: model.allocation_cost(trial, nodes, pattern), clear_all
    )
    kernel_warm = timeit(lambda: model.allocation_cost(trial, nodes, pattern))

    print("timing allocators ...")
    allocate = {}
    for name in ("default", "greedy", "balanced", "adaptive"):
        allocator = get_allocator(name)
        allocate[name] = timeit(lambda: allocator.allocate(state, job), repeats=3)

    print("timing counterfactual snapshots ...")
    copy_s = timeit(state.copy, repeats=3)
    takes = get_allocator("default").allocate(state, job)
    overlay_s = timeit(lambda: state.comm_overlay(takes, JobKind.COMM), repeats=3)

    snapshot = {
        "pr": 1,
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "scale": {
            "topology": "mira_like",
            "n_nodes": int(state.topology.n_nodes),
            "n_leaves": int(state.topology.n_leaves),
            "job_nodes": JOB_NODES,
            "pattern": "rd",
        },
        "cost_eval_seconds": {
            "pairwise_baseline": pairwise,
            "leafpair_cold": kernel_cold,
            "leafpair_warm": kernel_warm,
        },
        "speedup_over_pairwise": {
            "leafpair_cold": pairwise / kernel_cold,
            "leafpair_warm": pairwise / kernel_warm,
        },
        "allocate_seconds": allocate,
        "counterfactual_snapshot_seconds": {
            "state_copy": copy_s,
            "comm_overlay": overlay_s,
        },
    }
    atomic_write_text(out_path, json.dumps(snapshot, indent=2) + "\n")
    print(json.dumps(snapshot["cost_eval_seconds"], indent=2))
    print(json.dumps(snapshot["speedup_over_pairwise"], indent=2))
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
