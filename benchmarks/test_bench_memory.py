"""PR 9 memory gate: a streaming run must keep peak RSS flat.

The constant-memory contract is the whole point of the streaming trace
protocol — a million-job simulation must not hold a million ``Job``
objects (or a million ``JobRecord`` results) alive. This gate replays
the ladder's streaming rung in a fresh subprocess (so peak RSS is the
rung's own, not pytest's) and asserts:

* peak RSS stays under a generous flat budget — a regression that
  re-materializes the trace or accumulates records blows through it
  by hundreds of MB, machine differences do not;
* every job finished (the run actually happened);
* jobs/sec is within 2x of the committed ``BENCH_PR9.json`` streaming
  baseline — machines differ, a 2x cliff does not happen by noise.

``REPRO_BENCH_MEMORY_JOBS`` scales the run (default 1M, ~5-10 min;
CI may lower it — jobs/sec is roughly size-independent and the RSS
budget is flat by design, so the assertions hold at any rung size).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BENCH_PR9 = REPO / "BENCH_PR9.json"
RUN_BENCH = Path(__file__).resolve().parent / "run_bench.py"

#: flat ceiling for a streaming run of ANY size (measured: ~60 MB at 1M)
RSS_BUDGET_BYTES = 300 * 1024 * 1024


def gate_n_jobs(default: int = 1_000_000) -> int:
    return int(os.environ.get("REPRO_BENCH_MEMORY_JOBS", default))


@pytest.fixture(scope="module")
def rung_stats():
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    spec = {"mode": "streaming", "n_jobs": gate_n_jobs()}
    proc = subprocess.run(
        [sys.executable, str(RUN_BENCH), "--ladder-rung", json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_streaming_peak_rss_under_budget(rung_stats):
    peak = rung_stats["peak_rss_bytes"]
    # stderr, not a results file: the numbers are this host's, and a
    # tracked file rewritten by every CI run would dirty the tree
    print(
        f"streaming {rung_stats['n_jobs']} jobs: "
        f"peak RSS {peak / 1e6:.1f} MB (budget {RSS_BUDGET_BYTES / 1e6:.0f} MB), "
        f"{rung_stats['jobs_per_sec']:.0f} jobs/s",
        file=sys.stderr,
    )
    assert peak > 0, "peak_rss_bytes unavailable on this platform"
    assert peak <= RSS_BUDGET_BYTES, (
        f"streaming peak RSS {peak / 1e6:.1f} MB exceeds the "
        f"{RSS_BUDGET_BYTES / 1e6:.0f} MB flat budget — is the trace or "
        "the record list being materialized?"
    )


def test_all_jobs_finished(rung_stats):
    assert rung_stats["records"] == rung_stats["n_jobs"]


@pytest.mark.skipif(not BENCH_PR9.exists(), reason="no BENCH_PR9.json baseline")
def test_jobs_per_sec_within_2x_of_baseline(rung_stats):
    snapshot = json.loads(BENCH_PR9.read_text())
    baseline = next(
        r
        for r in snapshot["rungs"]
        if r["mode"] == "streaming" and r["n_jobs"] == 1_000_000
    )
    assert rung_stats["jobs_per_sec"] * 2.0 >= baseline["jobs_per_sec"], (
        f"streaming throughput {rung_stats['jobs_per_sec']:.0f} jobs/s is "
        f"more than 2x below the committed baseline "
        f"{baseline['jobs_per_sec']:.0f} jobs/s"
    )
