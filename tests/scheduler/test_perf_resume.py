"""Regression tests: perf state survives pause/checkpoint/resume.

A ``--perf`` run that pauses and resumes must report whole-run counters,
not just the post-resume tail — the engine-owned recorder is serialized
into the checkpoint (under a ``perf`` key) and restored on resume.
Checkpoints taken without perf collection must stay byte-identical to
the pre-observability format: no ``perf`` key at all.
"""

from repro.scheduler.engine import EngineConfig, SchedulerEngine
from repro.scheduler.serialize import result_to_dict
from repro.topology import two_level_tree

from .test_checkpoint import make_jobs


def make_topology():
    return two_level_tree(n_leaves=4, nodes_per_leaf=8)


def straight_run():
    engine = SchedulerEngine(
        make_topology(), "greedy", EngineConfig(collect_perf=True)
    )
    return engine.run(make_jobs())


def paused_run(stop_after):
    engine = SchedulerEngine(
        make_topology(), "greedy", EngineConfig(collect_perf=True)
    )
    assert engine.run(make_jobs(), stop_after=stop_after) is None
    snap = engine.snapshot()
    fresh = SchedulerEngine.from_snapshot(snap)
    return snap, fresh.run(resume_from=snap)


# Resuming rebuilds the incremental-pass state from scratch, so the first
# post-resume pass runs full where the uninterrupted run went incremental.
# The full/incremental *split* (and the jobs a full pass rescans) may
# therefore shift across a resume; their totals must not.
RESUME_SENSITIVE = frozenset(
    ("engine.passes_full", "engine.passes_incremental", "policy.jobs_scanned")
)


def comparable(perf):
    counters = dict(perf["counters"])
    view = {k: v for k, v in counters.items() if k not in RESUME_SENSITIVE}
    view["passes"] = counters.get("engine.passes_full", 0) + counters.get(
        "engine.passes_incremental", 0
    )
    return view


class TestPerfAcrossResume:
    def test_snapshot_carries_perf_state(self):
        snap, _ = paused_run(stop_after=5)
        assert "perf" in snap
        assert snap["perf"]["counters"]["engine.batches"] == 5

    def test_resumed_counters_equal_uninterrupted(self):
        full = straight_run()
        _, resumed = paused_run(stop_after=7)
        assert result_to_dict(resumed) == result_to_dict(full)
        assert resumed.perf is not None and full.perf is not None
        assert comparable(resumed.perf) == comparable(full.perf)

    def test_resumed_timer_calls_equal_uninterrupted(self):
        # timer *durations* are wall clock and vary run to run; the call
        # counts are deterministic and must cover the whole run
        full = straight_run()
        _, resumed = paused_run(stop_after=7)
        calls = lambda perf: {
            name: timer["calls"] for name, timer in perf["timers"].items()
        }
        assert calls(resumed.perf) == calls(full.perf)

    def test_double_pause_still_accumulates(self):
        full = straight_run()
        engine = SchedulerEngine(
            make_topology(), "greedy", EngineConfig(collect_perf=True)
        )
        assert engine.run(make_jobs(), stop_after=4) is None
        snap1 = engine.snapshot()
        mid = SchedulerEngine.from_snapshot(snap1)
        assert mid.run(resume_from=snap1, stop_after=9) is None
        snap2 = mid.snapshot()
        final = SchedulerEngine.from_snapshot(snap2)
        result = final.run(resume_from=snap2)
        assert comparable(result.perf) == comparable(full.perf)


class TestUntracedCheckpointsUnchanged:
    def test_no_perf_key_without_collection(self):
        engine = SchedulerEngine(make_topology(), "greedy")
        assert engine.run(make_jobs(), stop_after=5) is None
        snap = engine.snapshot()
        assert "perf" not in snap

    def test_resume_from_untraced_checkpoint_with_perf_config(self):
        # resuming a pre-obs checkpoint under --perf starts counting from
        # the resume point instead of failing on the absent key
        engine = SchedulerEngine(make_topology(), "greedy")
        assert engine.run(make_jobs(), stop_after=5) is None
        snap = engine.snapshot()
        fresh = SchedulerEngine.from_snapshot(snap)
        fresh.config = EngineConfig(
            **{**fresh.config.__dict__, "collect_perf": True}
        )
        result = fresh.run(resume_from=snap)
        assert result.perf is not None
        assert result.perf["counters"]["engine.batches"] >= 1
