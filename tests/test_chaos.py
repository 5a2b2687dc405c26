"""Chaos harness: plans are deterministic, injectors injure, runs recover."""

import json

import pytest

from repro.chaos import (
    CHAOS_OPS,
    ChaosAction,
    ChaosPlanConfig,
    ChaosTaskError,
    flip_byte,
    generate_chaos_plan,
    load_plan,
    run_chaos,
    save_plan,
    tear_file,
)
from repro.cli import main
from repro.experiments import ExperimentConfig


class TestPlan:
    def test_same_seed_same_plan(self):
        cfg = ChaosPlanConfig(seed=5)
        assert generate_chaos_plan(cfg) == generate_chaos_plan(cfg)

    def test_different_seed_different_parameters(self):
        a = generate_chaos_plan(ChaosPlanConfig(seed=0))
        b = generate_chaos_plan(ChaosPlanConfig(seed=1))
        assert a != b
        # ...but identical structural coverage: same op battery.
        assert [x.op for x in a.actions] == [x.op for x in b.actions]

    def test_every_failure_class_covered(self):
        plan = generate_chaos_plan(ChaosPlanConfig(seed=0))
        assert {a.op for a in plan.actions} == set(CHAOS_OPS)

    def test_roundtrip(self, tmp_path):
        plan = generate_chaos_plan(ChaosPlanConfig(seed=9))
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan
        assert json.loads(path.read_text())["kind"] == "chaos-plan"

    def test_unknown_version_rejected(self, tmp_path):
        plan = generate_chaos_plan(ChaosPlanConfig(seed=0))
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        data = json.loads(path.read_text())
        data["chaos_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="version"):
            load_plan(path)

    def test_action_validation(self):
        with pytest.raises(ValueError, match="unknown chaos op"):
            ChaosAction("set-on-fire", "task:a")
        with pytest.raises(ValueError, match="target"):
            ChaosAction("kill-worker", "artifact:checkpoint")
        with pytest.raises(ValueError, match="artifact"):
            ChaosAction("flip-byte", "artifact:nonsense")

    def test_selectors(self):
        plan = generate_chaos_plan(ChaosPlanConfig(seed=0))
        assert all(a.op == "kill-worker" or a.attempt >= 1
                   for a in plan.for_task("default"))
        assert {a.op for a in plan.for_artifact("checkpoint")} == {
            "tear-file", "flip-byte",
        }
        assert {a.op for a in plan.io_actions()} == {"enospc", "slow-io"}


class TestInjectors:
    def test_flip_byte_changes_exactly_one_byte(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(bytes(range(100)))
        offset = flip_byte(path, 0.5)
        after = path.read_bytes()
        assert len(after) == 100
        diffs = [i for i in range(100) if after[i] != i]
        assert diffs == [offset]

    def test_tear_file_truncates(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 100)
        kept = tear_file(path, 0.3)
        assert path.stat().st_size == kept == 30

    def test_tear_never_leaves_whole_or_empty(self, tmp_path):
        path = tmp_path / "f.bin"
        for fraction in (0.0, 1.0):
            path.write_bytes(b"x" * 10)
            kept = tear_file(path, fraction)
            assert 1 <= kept <= 9

    def test_empty_file_cannot_be_corrupted(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            flip_byte(path)


class TestRunChaos:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        plan = generate_chaos_plan(ChaosPlanConfig(seed=2))
        config = ExperimentConfig(
            n_jobs=16, seed=2, allocators=("default", "balanced")
        )
        return run_chaos(
            plan, tmp_path_factory.mktemp("chaos"), config=config
        )

    def test_recovers_bit_identically(self, report):
        assert report.failures == []
        assert report.ok
        assert report.executor_match
        assert report.engine_resume_match
        assert len(report.fallback_skipped) == 2

    def test_recovery_visible_in_counters(self, report):
        counters = report.counters
        assert counters.get("runs.pool_rebuilds", 0) >= 1  # worker kill
        assert counters.get("runs.task_retries", 0) >= 2   # kill + error
        assert counters.get("runs.fallback_resumes", 0) == 2
        assert counters.get("chaos.artifact_corruptions", 0) >= 4
        assert counters.get("engine.invariant_checks", 0) > 0
        assert "engine.invariant_violations" not in counters

    def test_corruption_detected_typed(self, report):
        assert "result flip" in report.detections
        assert "journal flip" in report.detections
        assert report.io_faults_recovered

    def test_summary_renders(self, report):
        text = report.summary()
        assert "RECOVERED" in text
        assert "bit-identical" in text

    def test_serial_run_rejected(self, tmp_path):
        plan = generate_chaos_plan(ChaosPlanConfig(seed=0))
        with pytest.raises(ValueError, match="workers"):
            run_chaos(plan, tmp_path, workers=1)


class TestChaosTaskError:
    def test_is_a_runtime_error(self):
        assert issubclass(ChaosTaskError, RuntimeError)


class TestCli:
    def test_plan_to_stdout(self, capsys):
        assert main(["chaos", "plan", "--seed", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 4
        assert len(data["actions"]) == 9

    def test_plan_to_file_then_run(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        assert main(["chaos", "plan", "--seed", "4",
                     "--output", str(plan_file)]) == 0
        capsys.readouterr()
        code = main(["chaos", "run", "--plan", str(plan_file),
                     "--jobs", "12", "--workdir", str(tmp_path / "work")])
        out = capsys.readouterr().out
        assert code == 0
        assert "RECOVERED" in out

    def test_run_bad_plan_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "not-a-plan"}')
        assert main(["chaos", "run", "--plan", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
