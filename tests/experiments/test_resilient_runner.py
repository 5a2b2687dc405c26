"""Resilient harness paths: crash recovery never changes the numbers.

The crash injectors live at module level (pickled by reference across
the process boundary) and capture the *real* workers at import time so
monkeypatching the harness cannot recurse into the injector.
"""

import os

import pytest

from repro.experiments import ExperimentConfig, continuous_runs, individual_runs
from repro.experiments import runner as runner_module
from repro.experiments.runner import _continuous_worker as _real_continuous_worker
from repro.experiments.sweeps import sweep
from repro.runs import PartialResults, TaskFailedError, load_journal
from repro.workloads import single_pattern_mix


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(
        log="theta",
        n_jobs=30,
        seed=3,
        mix=single_pattern_mix("rd"),
        allocators=("default", "greedy"),
    )


def record_tuples(result):
    return [
        (
            r.job.job_id,
            r.start_time,
            r.finish_time,
            r.nodes.tolist(),
            sorted(r.cost_jobaware.items()),
            sorted(r.cost_default.items()),
        )
        for r in result.records
    ]


def crash_once_worker(cfg, name, jobs):
    """Die like an OOM-killed worker the first time 'greedy' runs."""
    if name == "greedy":
        marker = os.path.join(os.environ["REPRO_TEST_CRASH_DIR"], name)
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
    return _real_continuous_worker(cfg, name, jobs)


def always_fail_worker(cfg, name, jobs):
    if name == "greedy":
        raise ValueError("greedy is cursed today")
    return _real_continuous_worker(cfg, name, jobs)


class TestContinuousCrashRecovery:
    def test_killed_worker_recovered_bit_identical(
        self, cfg, tmp_path, monkeypatch
    ):
        serial = continuous_runs(cfg)
        monkeypatch.setenv("REPRO_TEST_CRASH_DIR", str(tmp_path))
        monkeypatch.setattr(runner_module, "_continuous_worker", crash_once_worker)
        journal_path = tmp_path / "run.jsonl"
        recovered = continuous_runs(
            cfg, workers=2, max_retries=2, journal=journal_path
        )
        # A fully recovered run comes back as a plain dict, not partial.
        assert not isinstance(recovered, PartialResults)
        assert list(recovered) == list(serial)
        for name in serial:
            assert record_tuples(recovered[name]) == record_tuples(serial[name])
            assert recovered[name].summary() == serial[name].summary()
        data = load_journal(journal_path)
        assert data.run_type == "continuous_runs"
        assert data.attempt_count("greedy") >= 2
        assert data.missing_keys() == []
        assert any(n["event"] == "pool-rebuilt" for n in data.notes)

    def test_skip_mode_names_missing_cells(self, cfg, monkeypatch):
        monkeypatch.setattr(runner_module, "_continuous_worker", always_fail_worker)
        out = continuous_runs(cfg, max_retries=0, on_task_error="skip")
        assert isinstance(out, PartialResults)
        assert not out.complete
        assert list(out.missing) == ["greedy"]
        assert "cursed" in out.missing["greedy"]
        assert list(out) == ["default"]

    def test_raise_mode_propagates(self, cfg, monkeypatch):
        # default arguments fail like on_task_error="raise", in-process
        # and pooled alike
        monkeypatch.setattr(runner_module, "_continuous_worker", always_fail_worker)
        for workers in (None, 2):
            for kwargs in ({}, {"on_task_error": "raise"}):
                with pytest.raises(TaskFailedError, match="greedy"):
                    continuous_runs(cfg, workers=workers, **kwargs)


class TestResilientParity:
    """With no failures injected, the resilient paths are pure plumbing."""

    def test_continuous_resilient_equals_serial(self, cfg, tmp_path):
        serial = continuous_runs(cfg)
        resilient = continuous_runs(
            cfg, max_retries=1, journal=tmp_path / "run.jsonl"
        )
        for name in serial:
            assert record_tuples(resilient[name]) == record_tuples(serial[name])

    def test_individual_resilient_equals_serial(self, cfg, tmp_path):
        serial = individual_runs(cfg, n_samples=4)
        resilient = individual_runs(
            cfg, n_samples=4, max_retries=1, journal=tmp_path / "run.jsonl"
        )
        assert resilient.complete
        assert resilient.outcomes == serial.outcomes
        data = load_journal(tmp_path / "run.jsonl")
        assert data.run_type == "individual_runs"
        assert data.missing_keys() == []

    def test_sweep_resilient_equals_serial(self, tmp_path):
        grid = {"n_jobs": [10, 20], "seed": [1]}
        serial = sweep(grid, allocators=("default", "greedy"))
        resilient = sweep(
            grid,
            allocators=("default", "greedy"),
            max_retries=1,
            journal=tmp_path / "run.jsonl",
        )
        assert resilient.complete if hasattr(resilient, "complete") else True
        assert resilient == serial
        data = load_journal(tmp_path / "run.jsonl")
        assert data.run_type == "sweep"
        assert len(data.completed_keys()) == 2
