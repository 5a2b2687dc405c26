"""One benchmark run in a fresh process: set-up, one timed call, checks.

Started by ``bench.py``; prints one JSON object on its last stdout line.

    python3 child.py WORKLOAD SEED MODE [--quick]

MODE is ``setup`` (set-up only), ``run`` (the timed call), ``serial``
(the sweep on one in-process worker) or ``trace`` (the timed call under
the per-layer ledger, with the engine's counters collected).
"""

from __future__ import annotations

import time

# set-up is timed from here, before anything of the program is imported
T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from repro.obs import PerfRecorder, ProgressReporter, peak_rss_bytes  # noqa: E402
from repro.obs import runtime as obs_runtime  # noqa: E402

import cases  # noqa: E402
from ledger import Ledger  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


class StampReporter(ProgressReporter):
    """Timestamps each engine batch or finished sweep cell, nothing else."""

    def __init__(self) -> None:
        super().__init__(interval=float("inf"))
        self.stamps: list = []

    def engine_batch(self, sim_time, n_events, jobs_finished) -> None:
        self.stamps.append(time.perf_counter())

    def task_update(self, done, total, key=None) -> None:
        self.stamps.append(time.perf_counter())


def _wait_for_children() -> None:
    """Wait until every process the program started has ended."""
    for proc in multiprocessing.active_children():
        proc.join()
    # a shared-memory segment starts a resource tracker, which would
    # otherwise end just after this process, with no one waiting for it
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=cases.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("setup", "run", "serial", "trace"))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    traced = args.mode == "trace"
    ledger = Ledger() if traced else None
    if ledger is not None:
        ledger.install()
    prepared = cases.prepare(
        args.workload,
        args.seed,
        quick=args.quick,
        serial=args.mode in ("serial", "trace"),
        ledger=ledger,
        workdir=OUT_DIR,
    )
    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    try:
        out["setup_s"] = time.perf_counter() - T_START
        if args.mode == "setup":
            print(json.dumps(out))
            return 0

        reporter = StampReporter()
        recorder = PerfRecorder()
        counting = obs_runtime.collecting(recorder) if traced else contextlib.nullcontext()
        with obs_runtime.progressing(reporter), counting:
            t0 = time.perf_counter()
            output = prepared.call()
            wall = time.perf_counter() - t0
        # a pool's workers are terminated but not waited for; once joined,
        # RUSAGE_CHILDREN counts them all
        _wait_for_children()
        # before digesting: digesting 80k records alone doubles the RSS
        rss = peak_rss_bytes()
        if args.workload == "sweep-fanout":
            rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024)
    finally:
        prepared.cleanup()

    stamps = np.asarray(reporter.stamps)
    if args.workload == "sweep-fanout":
        # every cell is submitted when the sweep starts, so a cell's
        # latency runs from the sweep call to the delivery of its result
        latencies = (stamps - t0) * 1e6
    else:
        # the engine processes batches back to back, so a batch's
        # latency is the time since the previous batch ended
        latencies = np.diff(np.concatenate([[t0], stamps])) * 1e6
    p50, p99 = np.percentile(latencies, [50, 99])
    digest, inputs_digest, problems = prepared.finish(output)
    out.update(
        wall_s=wall,
        jobs=prepared.jobs,
        jobs_per_s=prepared.jobs / wall,
        batches=int(latencies.size),
        batch_p50_us=float(p50),
        batch_p99_us=float(p99),
        peak_rss_mb=rss / 1e6,
        digest=digest,
        inputs_digest=inputs_digest,
        problems=problems,
    )
    if ledger is not None:
        ledger.uninstall()
        counters = recorder.counters
        out["ledger"] = ledger.metrics(wall, prepared.jobs, counters)
        out["counts"] = {
            "passes_full": counters.get("engine.passes_full", 0),
            "passes_incremental": counters.get("engine.passes_incremental", 0),
            "passes_skipped": counters.get("engine.passes_skipped", 0),
            "events": counters.get("engine.events", 0),
            "batches": counters.get("engine.batches", 0),
            "release_many_calls": ledger.calls.get("ClusterState.release_many", 0),
            "faults_injected": counters.get("engine.faults_injected", 0),
            "jobs_requeued": counters.get("engine.jobs_requeued", 0),
        }
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.jsonl"
        out["spans_written"] = ledger.write_spans(trace_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
