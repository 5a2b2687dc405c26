"""CLI surface of ``sweep``: CSV rows, output file, usage errors."""

from repro.cli import main

SWEEP_SMALL = [
    "sweep",
    "--param", "seed=0,1",
    "--default", "n_jobs=20",
    "--allocators", "default",
]


class TestSweepCommand:
    def test_serial_sweep_emits_csv(self, capsys):
        assert main(SWEEP_SMALL) == 0
        out = capsys.readouterr().out
        header, *rows = [l for l in out.splitlines() if l]
        assert "allocator" in header and "seed" in header
        assert len(rows) == 2  # two seeds x one allocator

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(SWEEP_SMALL + ["--output", str(out)]) == 0
        assert "wrote 2 rows" in capsys.readouterr().out
        assert out.read_text().count("\n") == 3  # header + 2 rows

    def test_malformed_param_is_usage_error(self, capsys):
        assert main(["sweep", "--param", "seed"]) == 2
        assert "--param" in capsys.readouterr().err

    def test_unknown_parameter_is_usage_error(self, capsys):
        assert main(["sweep", "--param", "warp=1,2"]) == 2
        assert "unknown sweep parameters" in capsys.readouterr().err

    def test_unknown_policy_is_usage_error(self, capsys):
        # checked before the fan-out, not reported as a failed cell
        assert main(["sweep", "--param", "policy=nope"]) == 2
        assert "unknown policy" in capsys.readouterr().err
