"""CLI surface of the sweep fabric: sweep, fabric start/worker/status."""

import json

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

    def test_fabric_sweep_matches_serial(self, tmp_path, capsys):
        serial_out = tmp_path / "serial.csv"
        assert main(SWEEP_SMALL + ["--output", str(serial_out)]) == 0
        fabric_out = tmp_path / "fabric.csv"
        code = main(
            SWEEP_SMALL
            + [
                "--fabric",
                "--fabric-dir", str(tmp_path / "fab"),
                "--fabric-workers", "2",
                "--output", str(fabric_out),
            ]
        )
        assert code == 0
        assert fabric_out.read_text() == serial_out.read_text()


class TestFabricCommand:
    def test_start_new_fabric_needs_grid(self, tmp_path, capsys):
        assert main(["fabric", "start", str(tmp_path / "fab")]) == 2
        assert "--param" in capsys.readouterr().err

    def test_start_with_workers_completes(self, tmp_path, capsys):
        code = main(
            [
                "fabric", "start", str(tmp_path / "fab"),
                "--param", "seed=0",
                "--default", "n_jobs=20",
                "--allocators", "default",
                "--workers", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "initialized fabric with 1 cells" in out
        assert "'completed': 1" in out

    def test_status_reports_completion(self, tmp_path, capsys):
        root = tmp_path / "fab"
        main(
            [
                "fabric", "start", str(root),
                "--param", "seed=0",
                "--default", "n_jobs=20",
                "--allocators", "default",
                "--workers", "1",
            ]
        )
        capsys.readouterr()
        assert main(["fabric", "status", str(root)]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["cells"] == 1
        assert status["completed"] == 1
        assert status["stopped"] is True

    def test_status_prometheus(self, tmp_path, capsys):
        root = tmp_path / "fab"
        main(
            [
                "fabric", "start", str(root),
                "--param", "seed=0",
                "--default", "n_jobs=20",
                "--allocators", "default",
                "--workers", "1",
            ]
        )
        capsys.readouterr()
        assert main(["fabric", "status", str(root), "--prometheus"]) == 0
        text = capsys.readouterr().out
        assert "repro_fabric_completed_cells 1" in text

    def test_status_on_missing_dir_is_io_error(self, tmp_path, capsys):
        assert main(["fabric", "status", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err
