"""CLI fault-injection flags and simulate error handling."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_fault_flag_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.fault_trace is None
        assert args.fault_rate == 0.0
        assert args.fault_seed == 0
        assert args.mttr == 1800.0
        assert args.switch_fault_fraction == 0.1
        assert args.interrupt_policy == "requeue"
        assert args.checkpoint_interval == 3600.0

    def test_unknown_policy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--interrupt-policy", "retry"])


class TestFaultInjection:
    def test_zero_rate_is_bit_identical_to_no_flags(self, tmp_path, capsys):
        base, zero = tmp_path / "base", tmp_path / "zero"
        assert main(["simulate", "--jobs", "25", "--allocator", "greedy",
                     "--save", str(base)]) == 0
        assert main(["simulate", "--jobs", "25", "--allocator", "greedy",
                     "--fault-rate", "0", "--save", str(zero)]) == 0
        capsys.readouterr()
        for path in base.iterdir():
            assert path.read_text() == (zero / path.name).read_text()

    def test_same_fault_seed_identical_records(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        flags = ["simulate", "--jobs", "25", "--allocator", "greedy",
                 "--fault-rate", "3", "--fault-seed", "5"]
        assert main(flags + ["--save", str(a)]) == 0
        assert main(flags + ["--save", str(b)]) == 0
        capsys.readouterr()
        for path in a.iterdir():
            assert path.read_text() == (b / path.name).read_text()

    def test_faulted_run_reports_fault_metrics(self, capsys):
        assert main(["simulate", "--jobs", "25", "--allocator", "balanced",
                     "--fault-rate", "3", "--fault-seed", "5",
                     "--interrupt-policy", "checkpoint"]) == 0
        out = capsys.readouterr().out
        assert "wasted_node_hours" in out
        assert "total_requeues" in out

    def test_fault_trace_replays(self, tmp_path, capsys):
        trace = tmp_path / "faults.trace"
        trace.write_text("600 down node:0\n1200 up node:0\n")
        assert main(["simulate", "--jobs", "10", "--allocator", "greedy",
                     "--fault-trace", str(trace)]) == 0
        assert "goodput_node_hours" in capsys.readouterr().out

    def test_saved_json_carries_fault_fields(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["simulate", "--jobs", "25", "--allocator", "greedy",
                     "--fault-rate", "3", "--fault-seed", "5",
                     "--save", str(out_dir)]) == 0
        capsys.readouterr()
        data = json.loads(next(out_dir.glob("*.json")).read_text())
        assert data["format_version"] == 3
        assert "unstarted" in data
        assert all("requeues" in rec for rec in data["records"])


class TestErrorHandling:
    def test_missing_fault_trace_exits_2(self, capsys):
        code = main(["simulate", "--jobs", "5", "--fault-trace", "/no/such/file"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_malformed_fault_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("not a fault line\n")
        assert main(["simulate", "--jobs", "5", "--fault-trace", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_fault_rate_exits_2(self, capsys):
        assert main(["simulate", "--jobs", "5", "--fault-rate", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_zero_checkpoint_interval_exits_2(self, capsys):
        code = main(["simulate", "--jobs", "5", "--checkpoint-interval", "0"])
        assert code == 2
        assert "checkpoint_interval" in capsys.readouterr().err
