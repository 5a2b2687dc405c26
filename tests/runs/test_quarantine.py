"""Quarantine-and-continue: failed cells are recorded, not fatal."""

import os
import warnings


from repro.runs import RetryPolicy, RunJournal, TaskSpec, load_journal, run_tasks
from repro.runs.retry import ON_ERROR_QUARANTINE

FAST = RetryPolicy(max_retries=1, backoff_base=0.01)


def _ok(x):
    return x * 2


def _fail_always(key):
    raise ValueError(f"{key} never works")


def _flaky(key, marker_dir):
    marker = os.path.join(marker_dir, key)
    if not os.path.exists(marker):
        open(marker, "w").close()
        raise RuntimeError("transient")
    return f"{key}-done"


class TestQuarantine:
    def run_mixed(self, **kwargs):
        tasks = [
            TaskSpec("good", _ok, (3,)),
            TaskSpec("bad", _fail_always, ("bad",)),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = run_tasks(
                tasks, policy=FAST, on_task_error=ON_ERROR_QUARANTINE, **kwargs
            )
        return out, caught

    def test_failed_cell_quarantined_rest_complete(self):
        out, _ = self.run_mixed()
        assert out.results == {"good": 6}
        assert list(out.quarantined) == ["bad"]
        assert "never works" in out.quarantined["bad"]
        assert out.missing == {}
        assert not out.complete

    def test_warning_names_dropped_cells(self):
        _, caught = self.run_mixed()
        texts = [str(w.message) for w in caught]
        assert any("quarantined" in t and "bad" in t for t in texts)

    def test_quarantine_journaled(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        journal = RunJournal(journal_path, run_type="tasks")
        try:
            self.run_mixed(journal=journal)
        finally:
            journal.close()
        data = load_journal(journal_path)
        events = [n for n in data.notes if n.get("event") == "quarantined"]
        assert len(events) == 1
        assert events[0]["key"] == "bad"

    def test_transient_failures_still_recover(self, tmp_path):
        tasks = [TaskSpec(k, _flaky, (k, str(tmp_path))) for k in ("a", "b")]
        out = run_tasks(tasks, policy=FAST, on_task_error=ON_ERROR_QUARANTINE)
        assert out.complete
        assert out.quarantined == {}

    def test_quarantined_counter_bumped(self):
        from repro.obs import runtime as obs_runtime

        with obs_runtime.collecting() as recorder:
            self.run_mixed()
        assert recorder.counters.get("runs.quarantined_cells") == 1


class TestSweepQuarantine:
    def test_sweep_returns_partial_rows(self, monkeypatch):
        from repro.experiments import sweeps

        real_worker = sweeps._sweep_point_worker

        def sabotaged(cfg):
            if cfg.seed == 1:
                raise RuntimeError("poisoned point")
            return real_worker(cfg)

        monkeypatch.setattr(sweeps, "_sweep_point_worker", sabotaged)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = sweeps.sweep(
                {"seed": [0, 1]},
                allocators=("default",),
                defaults={"n_jobs": 10},
                max_retries=1,
                on_task_error=ON_ERROR_QUARANTINE,
            )
        assert not rows.complete
        assert len(rows.quarantined) == 1
        assert "poisoned" in next(iter(rows.quarantined.values()))
        assert {row["seed"] for row in rows} == {0}
