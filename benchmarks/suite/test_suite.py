"""Checks of the benchmark itself, at ``--quick`` sizes.

    python3 -m pytest benchmarks/suite
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import label
from ledger import ENGINE, LAYERS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, root: Path = ROOT, out: Path = None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "benchmarks" / "suite" / "bench.py"), "--quick", *args]
    if out is not None:
        cmd += ["--out", str(out)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced") / "seed0.json"
    proc = bench("--repeats", "1", "--trace", out=out)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, json.loads(out.read_text())


@pytest.fixture(scope="module")
def seed1(tmp_path_factory):
    base = tmp_path_factory.mktemp("seed1")
    results = []
    for name in ("first.json", "second.json"):
        proc = bench("--repeats", "1", "--seed", "1", out=base / name)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results.append(json.loads((base / name).read_text()))
    return results


def test_every_metric_printed_with_unit(traced):
    proc, _ = traced
    sections = proc.stdout.split("\n== ")[1:]
    assert [s.split(" ", 1)[0] for s in sections] == WORKLOADS
    for section in sections:
        lines = section.splitlines()
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert any(
                line.split()[:1] == [metric["name"]] and line.split()[2] == metric["unit"]
                for line in lines
            ), f"{metric['name']} missing from {lines[0]}"
    line = last_json(proc)
    assert line["correct"] and line["failed"] == 0
    assert len(line["metrics"]) == len(SPEC["per_layer"]) * len(WORKLOADS)


def test_ledger_shares_sum_to_one(traced):
    _, results = traced
    for workload, res in results["workloads"].items():
        layer = res["per_layer"]
        shares = [layer[f"{name}.share"] for name in LAYERS + (ENGINE,)]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6), workload
        assert min(shares) >= 0.0, workload
        self_times = [v for k, v in layer.items() if k.endswith(".self_us_per_job")]
        assert min(self_times) >= 0.0, workload


def test_fanout_metrics_only_on_the_sweep(traced):
    _, results = traced
    for workload, res in results["workloads"].items():
        efficiency = res["per_layer"]["runs.parallel_efficiency"]
        assert (efficiency > 0) == (workload == "sweep-fanout"), workload


def _copy_suite(dest: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(
        SUITE, dest / "benchmarks" / "suite", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    if with_sources:
        (dest / "src").symlink_to(ROOT / "src")
    return dest


def test_tampered_digest_fails(tmp_path):
    root = _copy_suite(tmp_path, with_sources=True)
    pins_path = root / "benchmarks" / "suite" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["workloads"]["stream-default"]["quick"]["digest"] = "sha256:" + "0" * 64
    pins_path.write_text(json.dumps(pins))
    out = tmp_path / "tampered.json"
    proc = bench("--repeats", "1", "--workload", "stream-default", root=root, out=out)
    assert proc.returncode == 1
    line = last_json(proc)
    assert not line["correct"] and line["failed"] == line["attempted"] > 0
    failed_frac = json.loads(out.read_text())["workloads"]["stream-default"]["metrics"]["failed_frac"]
    assert failed_frac["median"] == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    root = _copy_suite(tmp_path, with_sources=False)
    proc = bench("--workload", "stream-default", "--seed", "0", "--seconds", "1", root=root)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seed_changes_every_digest(traced, seed1):
    _, seed0 = traced
    for workload in WORKLOADS:
        assert seed0["workloads"][workload]["digests"] != seed1[0]["workloads"][workload]["digests"]
        assert (
            seed0["workloads"][workload]["inputs_digests"]
            != seed1[0]["workloads"][workload]["inputs_digests"]
        )


def test_same_seed_same_inputs_and_outputs(seed1):
    first, second = seed1
    for workload in WORKLOADS:
        assert first["workloads"][workload]["inputs_digests"] == second["workloads"][workload]["inputs_digests"]
        assert first["workloads"][workload]["digests"] == second["workloads"][workload]["digests"]


def _summary(samples):
    ordered = sorted(samples)
    return {"median": ordered[len(ordered) // 2], "q1": ordered[0], "q3": ordered[-1], "samples": samples}


@pytest.mark.parametrize(
    "base, new, verdict",
    [
        ([100, 101, 102], [100, 101, 102], "same"),
        ([100, 101, 102], [120, 121, 122], "better"),
        ([100, 101, 102], [80, 81, 82], "worse"),
        ([60, 100, 140], [70, 105, 150], "unresolved"),
        ([60, 70, 80], [120, 150, 200], "better"),
    ],
)
def test_compare_labels(base, new, verdict):
    assert label(_summary(base), _summary(new), 0.1, higher_is_better=True)[0] == verdict
