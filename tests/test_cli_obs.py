"""CLI coverage for observability flags: --metrics-out/--trace-out/--progress
and the ``obs render`` inspection subcommand."""

from repro.cli import main
from repro.obs import load_spans, parse_prometheus, validate_spans


def run_simulate(tmp_path, *extra):
    metrics = tmp_path / "metrics.prom"
    trace = tmp_path / "trace.jsonl"
    code = main(
        [
            "simulate",
            "--jobs", "40",
            "--allocator", "greedy",
            "--metrics-out", str(metrics),
            "--trace-out", str(trace),
            *extra,
        ]
    )
    return code, metrics, trace


class TestSimulateArtifacts:
    def test_writes_parseable_metrics_and_valid_trace(self, tmp_path, capsys):
        code, metrics, trace = run_simulate(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote metrics to {metrics}" in out
        assert "spans" in out  # "wrote N spans to ..."

        samples, types = parse_prometheus(metrics.read_text())
        names = {s.name for s in samples}
        assert "repro_jobs_completed_total" in names
        assert "repro_perf_engine_events_total" in names
        assert types["repro_job_wait_seconds"] == "histogram"

        spans = load_spans(trace)
        validate_spans(spans)
        assert "engine.run" in {s.name for s in spans}

    def test_progress_heartbeat_goes_to_stderr(self, tmp_path, capsys):
        code, _, _ = run_simulate(tmp_path, "--progress")
        assert code == 0
        err = capsys.readouterr().err
        assert "progress: events=" in err
        assert err.splitlines()[-1].endswith("done")

    def test_artifacts_do_not_change_summary(self, tmp_path, capsys):
        assert main(["simulate", "--jobs", "40", "--allocator", "greedy"]) == 0
        plain = capsys.readouterr().out
        code, _, _ = run_simulate(tmp_path)
        assert code == 0
        instrumented = capsys.readouterr().out
        pick = lambda text: [
            line for line in text.splitlines() if line.startswith("makespan")
        ]
        greedy_lines = pick(instrumented)
        assert greedy_lines and set(greedy_lines) <= set(pick(plain))


class TestObsRender:
    def test_renders_both_artifacts(self, tmp_path, capsys):
        code, metrics, trace = run_simulate(tmp_path)
        assert code == 0
        capsys.readouterr()
        code = main(
            ["obs", "render", "--metrics", str(metrics), "--trace", str(trace)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "observability summary" in out
        assert "repro_jobs_completed_total" in out
        assert "engine.run" in out

    def test_requires_at_least_one_artifact(self, capsys):
        assert main(["obs", "render"]) == 2
        assert "needs --metrics and/or --trace" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["obs", "render", "--metrics", str(tmp_path / "nope.prom")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_metrics_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.prom"
        bad.write_text("this is not prometheus {{{\n")
        assert main(["obs", "render", "--metrics", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"span_id": 1}\n')
        assert main(["obs", "render", "--trace", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestSimulatePerf:
    def test_perf_prints_the_perf_table(self, capsys):
        assert main(["simulate", "--jobs", "50", "--perf"]) == 0
        out = capsys.readouterr().out
        assert "perf report" in out
        assert "jobs_per_sec" in out
        assert "engine.jobs_started" in out
