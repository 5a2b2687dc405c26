"""The repository benchmark: replay and fan-out workloads, end to end and per layer.

Run from the repository root:

    python3 benchmarks/suite/bench.py [--workload W ...] [--seed S]
        [--repeats R | --seconds T] [--trace [0|1]] [--quick] [--out FILE]

Each repeat of each workload runs in a fresh child process
(``child.py``), round-robin across workloads so that slow periods of the
host spread over all of them; repeat ``r`` runs with ``PYTHONHASHSEED=r``.
``--seconds T`` replaces the fixed repeat count with as many rounds as fit
in ``T`` seconds at the per-round times pinned in ``pins.json`` (at least
one), so the length of a run is set by the benchmark, never by how fast
the code or the host happens to be.
Set-up is sampled at least :data:`MIN_SETUPS` times per workload.

Outputs are checked twice: every run's schedule is validated
independently of the engine, and its digest must match the digest
pinned in ``pins.json`` (seed 0) or, for other seeds, every other run of
the same workload. A failed, timed-out or mismatching run counts in
``failed_frac``; the command then exits 1 after printing everything.

``--trace`` adds one run per workload under the per-layer ledger
(``ledger.py``) and prints it. The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json``, or its per-layer metrics with ``--trace``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from cases import SIZES, SWEEP_ALLOCATORS, SWEEP_WORKERS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SRC = ROOT / "src"

#: set-up samples per workload, taken by set-up-only children if the
#: timed runs did not already provide them
MIN_SETUPS = 5
#: a child is killed after this many times its workload's pinned wall
#: time (plus :data:`TIMEOUT_SLACK_S` for set-up and digesting)
TIMEOUT_FACTOR = 5
TIMEOUT_SLACK_S = 15.0


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def summarize(values: List[float]) -> dict:
    """Median, quartiles, count and the samples themselves."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": list(values)}


class Suite:
    """One invocation: runs children, checks outputs, aggregates metrics."""

    def __init__(self, args: argparse.Namespace, spec: dict, pins: dict) -> None:
        self.args = args
        self.spec = spec
        self.pins = pins
        self.size = "quick" if args.quick else "full"
        self.attempted = 0
        self.failed = 0
        self.runs: Dict[str, List[dict]] = {w: [] for w in args.workload}
        self.setups: Dict[str, List[float]] = {w: [] for w in args.workload}
        self.failures: Dict[str, List[str]] = {w: [] for w in args.workload}
        self.traced: Dict[str, dict] = {}
        self.serial: Dict[str, dict] = {}
        self.expected: Dict[str, Optional[str]] = {}
        for w in args.workload:
            pinned = pins["workloads"][w][self.size]
            self.expected[w] = pinned["digest"] if args.seed == pins["seed"] else None

    # ------------------------------------------------------------------

    def _weight(self, workload: str, mode: str) -> int:
        """Attempts one child stands for: sweep cells, or one run."""
        if workload == "sweep-fanout" and mode != "setup":
            return SIZES[workload][1 if self.args.quick else 0] * len(SWEEP_ALLOCATORS)
        return 1

    def _timeout(self, workload: str, mode: str) -> float:
        wall = self.pins["workloads"][workload][self.size]["wall_s"]
        if mode in ("serial", "trace"):
            wall *= 2  # one worker instead of two, or the ledger's overhead
        return TIMEOUT_FACTOR * wall + TIMEOUT_SLACK_S

    def child(self, workload: str, mode: str, hashseed: int) -> Optional[dict]:
        """Run one child; returns its record, or None when it failed."""
        cmd = [sys.executable, str(SUITE / "child.py"), workload, str(self.args.seed), mode]
        if self.args.quick:
            cmd.append("--quick")
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed), PYTHONPATH=str(SRC))
        weight = self._weight(workload, mode)
        self.attempted += weight
        rec, error = _run(cmd, env, self._timeout(workload, mode))
        if rec is not None and mode != "setup":
            error = self._check(workload, rec)
        if error is not None:
            self.failed += weight
            self.failures[workload].append(f"{mode} (PYTHONHASHSEED={hashseed}): {error}")
            print(f"  FAILED {workload} {mode}: {error}", file=sys.stderr)
            return None
        if mode in ("run", "setup"):  # the ledger's wrappers lengthen set-up
            self.setups[workload].append(rec["setup_s"])
        return rec

    def _check(self, workload: str, rec: dict) -> Optional[str]:
        if rec["problems"]:
            return "invalid schedule: " + "; ".join(rec["problems"])
        expected = self.expected[workload]
        if expected is None:
            self.expected[workload] = rec["digest"]
        elif rec["digest"] != expected:
            return f"output digest {rec['digest']} != expected {expected}"
        return None

    # ------------------------------------------------------------------

    def run(self) -> None:
        args = self.args
        rounds = args.repeats
        if args.seconds is not None:
            round_s = sum(self.pins["workloads"][w][self.size]["round_s"] for w in args.workload)
            rounds = max(1, int(args.seconds // round_s))
        for r in range(rounds):
            for w in args.workload:
                rec = self.child(w, "run", hashseed=r)
                if rec is not None:
                    self.runs[w].append(rec)
        for w in args.workload:
            while len(self.setups[w]) < MIN_SETUPS and not self.failures[w]:
                self.child(w, "setup", hashseed=len(self.setups[w]))
        if args.trace:
            for w in args.workload:
                if w == "sweep-fanout":
                    serial = self.child(w, "serial", hashseed=0)
                    if serial is not None:
                        self.serial[w] = serial
                traced = self.child(w, "trace", hashseed=0)
                if traced is not None:
                    self.traced[w] = traced

    def end_to_end(self, workload: str) -> Dict[str, Dict[str, float]]:
        """Summaries of every end-to-end metric of ``workload``."""
        runs = self.runs[workload]
        out = {}
        for name in (m["name"] for m in self.spec["end_to_end"]):
            values = self.setups[workload] if name == "setup_s" else [r[name] for r in runs]
            if values:
                out[name] = summarize(values)
        attempted = len(runs) + sum(1 for f in self.failures[workload] if f.startswith("run "))
        out["failed_frac"] = summarize([1.0 - len(runs) / attempted if attempted else 1.0])
        return out

    def per_layer(self, workload: str) -> Optional[Dict[str, float]]:
        """The traced run's ledger plus the metrics needing untraced runs."""
        traced = self.traced.get(workload)
        if traced is None:
            return None
        out = dict(traced["ledger"])
        if workload == "sweep-fanout":
            serial = self.serial.get(workload)
            runs = self.runs[workload]
            if serial is None or not runs:
                return None
            pooled = statistics.median(r["wall_s"] for r in runs)
            out["runs.parallel_efficiency"] = serial["wall_s"] / (pooled * SWEEP_WORKERS)
            out["runs.pool_overhead_s"] = pooled - serial["wall_s"] / SWEEP_WORKERS
            baseline = serial["jobs_per_s"]
        else:
            out["runs.parallel_efficiency"] = 0.0
            if not self.runs[workload]:
                return None
            baseline = statistics.median(r["jobs_per_s"] for r in self.runs[workload])
        out["trace.overhead_frac"] = 1.0 - traced["jobs_per_s"] / baseline
        return out

    # ------------------------------------------------------------------

    def report(self) -> dict:
        """Print every metric with its unit; return the full results."""
        units = {m["name"]: m["unit"] for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        units["failed_frac"] = "ratio"
        results = {"seed": self.args.seed, "quick": self.args.quick, "workloads": {}}
        for w in self.args.workload:
            e2e = self.end_to_end(w)
            print(f"\n== {w} (seed {self.args.seed}{', quick' if self.args.quick else ''})")
            for name, s in e2e.items():
                print(
                    f"  {name:<44} {s['median']:>14.6g} {units[name]:<8}"
                    f" q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}"
                )
            digests = sorted({r["digest"] for r in self.runs[w]})
            print(f"  output digest {', '.join(digests) or '-'}")
            inputs = sorted({r["inputs_digest"] for r in self.runs[w]})
            print(f"  inputs digest {', '.join(inputs) or '-'}")
            layer = self.per_layer(w)
            if layer is not None:
                print("  -- per-layer ledger (one traced run)")
                for name, value in layer.items():
                    print(f"  {name:<44} {value:>14.6g} {_unit(units, name)}")
                print(f"  counts {json.dumps(self.traced[w]['counts'])}")
            for f in self.failures[w]:
                print(f"  failure: {f}")
            results["workloads"][w] = {
                "metrics": {name: dict(s, unit=units[name]) for name, s in e2e.items()},
                "digests": digests,
                "inputs_digests": inputs,
                "per_layer": layer,
                "counts": self.traced[w]["counts"] if w in self.traced else None,
                "failures": self.failures[w],
            }
        return results

    def last_line(self, results: dict) -> dict:
        """The one-line JSON result: end-to-end or per-layer metrics."""
        metrics: Dict[str, dict] = {}
        wanted = self.spec["per_layer"] if self.args.trace else self.spec["end_to_end"]
        single = len(self.args.workload) == 1
        for w, res in results["workloads"].items():
            for m in wanted:
                if self.args.trace:
                    value = (res["per_layer"] or {}).get(m["name"])
                else:
                    value = res["metrics"].get(m["name"], {}).get("median")
                if value is not None:
                    key = m["name"] if single else f"{w}:{m['name']}"
                    metrics[key] = {"value": value, "unit": m["unit"]}
        complete = len(metrics) == len(wanted) * len(results["workloads"])
        return {
            "correct": self.failed == 0 and complete,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _unit(units: Dict[str, str], name: str) -> str:
    """The unit of a metric; ledger extras outside BENCHMARK.json by suffix."""
    if name in units:
        return units[name]
    return "us" if name.endswith("_us_per_job") else "s"


def _run(cmd: List[str], env: dict, timeout: float) -> Tuple[Optional[dict], Optional[str]]:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout:.0f}s"
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return None, f"exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(stdout.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, "no JSON result line"


def _trace_flag(text: str) -> int:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("--trace takes 0 or 1")
    return int(text)


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are not at {SRC}", file=sys.stderr)
        return 2
    try:
        spec = _load_json(ROOT / "BENCHMARK.json")
        pins = _load_json(SUITE / "pins.json")
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=0)
    count = parser.add_mutually_exclusive_group()
    count.add_argument("--repeats", type=int, default=5)
    count.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=_trace_flag, const=1, default=0)
    parser.add_argument("--quick", action="store_true", help="small sizes, under 2 s a run")
    parser.add_argument("--out", type=Path, help="write every sample and digest as JSON")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    args.workload = list(dict.fromkeys(args.workload))

    suite = Suite(args, spec, pins)
    suite.run()
    results = suite.report()
    line = suite.last_line(results)
    results.update(attempted=line["attempted"], failed=line["failed"])
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
