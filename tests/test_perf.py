"""Unit tests for the opt-in perf recorder (:mod:`repro.obs`)."""

from repro import obs
from repro.cluster import Job
from repro.scheduler import EngineConfig, simulate
from repro.topology import two_level_tree


def make_jobs(n=8):
    jobs = []
    t = 0.0
    for i in range(1, n + 1):
        t += (i * 7) % 13
        jobs.append(Job(i, float(t), 1 + (i * 3) % 8, 50.0 + i))
    return jobs


class TestRecorder:
    def test_counters_accumulate(self):
        rec = obs.PerfRecorder()
        rec.count("a")
        rec.count("a", 2)
        rec.count("b", 0.5)
        assert rec.counters == {"a": 3, "b": 0.5}

    def test_timer_accumulates_and_counts_calls(self):
        rec = obs.PerfRecorder()
        with rec.timer("t"):
            pass
        with rec.timer("t"):
            pass
        snap = rec.snapshot()
        assert snap["timers"]["t"]["calls"] == 2
        assert snap["timers"]["t"]["seconds"] >= 0.0

    def test_reentrant_timer_counts_outermost_only(self):
        """A timer entered inside itself must not double-count."""
        rec = obs.PerfRecorder()
        with rec.timer("t"):
            with rec.timer("t"):
                with rec.timer("t"):
                    pass
        snap = rec.snapshot()
        assert snap["timers"]["t"]["calls"] == 1

    def test_snapshot_derives_rates(self):
        rec = obs.PerfRecorder()
        rec.count("engine.events", 100)
        rec.count("engine.jobs_started", 40)
        snap = rec.snapshot()
        assert snap["derived"]["events_per_sec"] > 0
        assert snap["derived"]["jobs_per_sec"] > 0
        assert snap["derived"]["elapsed_seconds"] > 0


class TestModuleHooks:
    def test_hooks_are_noops_when_inactive(self):
        assert obs.active() is None
        obs.count("ignored")
        with obs.timer("ignored"):
            pass
        assert obs.active() is None

    def test_collecting_installs_and_restores(self):
        assert obs.active() is None
        with obs.collecting() as rec:
            assert obs.active() is rec
            obs.count("x")
            with obs.timer("y"):
                pass
        assert obs.active() is None
        assert rec.counters["x"] == 1
        assert "y" in rec.snapshot()["timers"]

    def test_collecting_nests(self):
        with obs.collecting() as outer:
            with obs.collecting() as inner:
                obs.count("k")
            obs.count("k")
            assert obs.active() is outer
        assert inner.counters["k"] == 1
        assert outer.counters["k"] == 1


class TestEngineIntegration:
    def test_collect_perf_attaches_report(self):
        topo = two_level_tree(n_leaves=4, nodes_per_leaf=8)
        res = simulate(topo, make_jobs(), "greedy",
                       config=EngineConfig(collect_perf=True))
        assert res.perf is not None
        assert res.perf["counters"]["engine.jobs_started"] == 8
        assert res.perf["counters"]["engine.events"] > 0
        assert res.perf["derived"]["jobs_per_sec"] > 0

    def test_perf_off_by_default(self):
        topo = two_level_tree(n_leaves=4, nodes_per_leaf=8)
        res = simulate(topo, make_jobs(), "greedy")
        assert res.perf is None

    def test_outer_recorder_is_reused(self):
        """An ambient recorder (e.g. a benchmark harness) wins: the
        engine reports into it instead of installing its own."""
        topo = two_level_tree(n_leaves=4, nodes_per_leaf=8)
        with obs.collecting() as rec:
            res = simulate(topo, make_jobs(), "greedy",
                           config=EngineConfig(collect_perf=True))
        assert rec.counters["engine.jobs_started"] == 8
        assert res.perf is None or res.perf["counters"]["engine.jobs_started"] == 8

    def test_pass_accounting_invariant(self):
        """Counted passes never exceed batches (empty-queue passes are
        free and uncounted), and at least one full pass always runs."""
        topo = two_level_tree(n_leaves=4, nodes_per_leaf=8)
        res = simulate(topo, make_jobs(20), "greedy",
                       config=EngineConfig(policy="backfill", collect_perf=True))
        c = res.perf["counters"]
        total = c.get("engine.passes_full", 0) + c.get("engine.passes_incremental", 0)
        assert c.get("engine.passes_full", 0) >= 1
        assert total <= c["engine.batches"]


class TestRender:
    def test_render_includes_counters_timers_rates(self):
        rec = obs.PerfRecorder()
        rec.count("engine.events", 10)
        with rec.timer("engine.pass"):
            pass
        text = obs.render_perf(rec.snapshot())
        assert "perf report" in text
        assert "engine.events" in text
        assert "engine.pass" in text
        assert "elapsed_seconds" in text
