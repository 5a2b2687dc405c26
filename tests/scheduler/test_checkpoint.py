"""Engine checkpoint/resume: pause anywhere, resume bit-identically.

The contract under test is absolute: a run paused at *any* event batch
and resumed — in the same process, in a fresh engine, or from a
checkpoint file — produces a result dict (including its digest) equal
to the uninterrupted run's, byte for byte.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CommComponent, Job, JobKind
from repro.faults import FaultGeneratorConfig, generate_faults
from repro.patterns import RecursiveDoubling
from repro.scheduler.engine import (
    EngineConfig,
    SchedulerEngine,
    SimulationInterrupted,
)
from repro.scheduler.serialize import dump_result, load_snapshot, result_to_dict
from repro.topology import two_level_tree


def make_topology():
    return two_level_tree(n_leaves=4, nodes_per_leaf=8)


def make_jobs(n=25):
    """Deterministic mixed workload; arithmetic stands in for an RNG."""
    jobs = []
    t = 0.0
    for i in range(1, n + 1):
        t += (i * 37) % 50
        nodes = 1 + (i * 13) % 16
        runtime = 50.0 + (i * 97) % 400
        if i % 3 == 0 and nodes > 1:
            jobs.append(
                Job(i, float(t), nodes, float(runtime), JobKind.COMM,
                    (CommComponent(RecursiveDoubling(), 0.6),))
            )
        else:
            jobs.append(Job(i, float(t), nodes, float(runtime)))
    return jobs


def make_faults(topo, jobs):
    horizon = 1.5 * max(j.submit_time for j in jobs)
    return generate_faults(topo, FaultGeneratorConfig(rate=2.0, horizon=horizon, seed=7))


def run_uninterrupted(allocator, *, faults=None, config=None):
    topo = make_topology()
    engine = SchedulerEngine(topo, allocator, config)
    return result_to_dict(engine.run(make_jobs(), faults=faults))


_BASELINES = {}


def baseline(allocator, faulty):
    if (allocator, faulty) not in _BASELINES:
        topo = make_topology()
        jobs = make_jobs()
        faults = make_faults(topo, jobs) if faulty else None
        _BASELINES[(allocator, faulty)] = run_uninterrupted(allocator, faults=faults)
    return _BASELINES[(allocator, faulty)]


class TestPauseResume:
    @pytest.mark.parametrize("stop_after", [1, 7, 40])
    def test_resume_matches_uninterrupted(self, stop_after):
        topo = make_topology()
        jobs = make_jobs()
        faults = make_faults(topo, jobs)
        engine = SchedulerEngine(topo, "greedy")
        paused = engine.run(jobs, faults=faults, stop_after=stop_after)
        assert paused is None
        snap = engine.snapshot()
        fresh = SchedulerEngine.from_snapshot(snap)
        result = fresh.run(resume_from=snap)
        assert result_to_dict(result) == baseline("greedy", True)

    def test_double_pause(self):
        topo = make_topology()
        engine = SchedulerEngine(topo, "balanced")
        assert engine.run(make_jobs(), stop_after=5) is None
        snap1 = engine.snapshot()
        mid = SchedulerEngine.from_snapshot(snap1)
        assert mid.run(resume_from=snap1, stop_after=9) is None
        snap2 = mid.snapshot()
        final = SchedulerEngine.from_snapshot(snap2)
        result = final.run(resume_from=snap2)
        assert result_to_dict(result) == baseline("balanced", False)

    @pytest.mark.parametrize("policy", ["requeue", "checkpoint", "abandon"])
    def test_resume_across_interrupt_policies(self, policy):
        cfg = EngineConfig(interrupt_policy=policy, checkpoint_interval=150.0)
        topo = make_topology()
        jobs = make_jobs()
        faults = make_faults(topo, jobs)
        full = run_uninterrupted("default", faults=faults, config=cfg)
        engine = SchedulerEngine(topo, "default", cfg)
        assert engine.run(jobs, faults=faults, stop_after=12) is None
        snap = engine.snapshot()
        fresh = SchedulerEngine.from_snapshot(snap)
        assert result_to_dict(fresh.run(resume_from=snap)) == full

    def test_checkpoint_file_round_trip(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        topo = make_topology()
        engine = SchedulerEngine(topo, "greedy")
        paused = engine.run(
            make_jobs(), stop_after=8, checkpoint_every=4, checkpoint_path=ckpt
        )
        assert paused is None
        assert ckpt.exists()
        data = load_snapshot(ckpt)
        fresh = SchedulerEngine.from_snapshot(data)
        result = fresh.run(resume_from=data)
        assert result_to_dict(result) == baseline("greedy", False)

    def test_checkpoint_file_is_plain_json_with_footer(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        engine = SchedulerEngine(make_topology(), "greedy")
        engine.run(make_jobs(), stop_after=3, checkpoint_path=ckpt)
        body, marker, footer = ckpt.read_text().rpartition("#sha256:")
        assert marker, "v4/v5 checkpoints carry a sha256 footer line"
        assert len(footer.strip()) == 64
        data = json.loads(body)
        assert data["kind"] == "engine-checkpoint"
        assert data["format_version"] == 5


class TestInterrupt:
    def test_interrupt_without_checkpoint(self):
        engine = SchedulerEngine(make_topology(), "greedy")
        with pytest.raises(SimulationInterrupted, match="no checkpoint"):
            engine.run(make_jobs(), interrupt=lambda: True)

    def test_interrupt_writes_resumable_checkpoint(self, tmp_path):
        ckpt = tmp_path / "sig.json"
        # Trip the flag partway through, as a signal handler would.
        calls = {"n": 0}

        def interrupt():
            calls["n"] += 1
            return calls["n"] > 6

        engine = SchedulerEngine(make_topology(), "greedy")
        with pytest.raises(SimulationInterrupted) as info:
            engine.run(make_jobs(), interrupt=interrupt, checkpoint_path=ckpt)
        assert info.value.checkpoint_path == str(ckpt)
        data = load_snapshot(ckpt)
        fresh = SchedulerEngine.from_snapshot(data)
        assert result_to_dict(fresh.run(resume_from=data)) == baseline("greedy", False)


class TestValidation:
    def test_snapshot_without_run_rejected(self):
        with pytest.raises(RuntimeError, match="no run in progress"):
            SchedulerEngine(make_topology(), "greedy").snapshot()

    def test_checkpoint_every_requires_path(self):
        engine = SchedulerEngine(make_topology(), "greedy")
        with pytest.raises(ValueError, match="checkpoint_path"):
            engine.run(make_jobs(), checkpoint_every=5)

    def test_stop_after_must_be_positive(self):
        engine = SchedulerEngine(make_topology(), "greedy")
        with pytest.raises(ValueError, match="stop_after"):
            engine.run(make_jobs(), stop_after=0)

    def test_resume_excludes_fresh_run_arguments(self):
        engine = SchedulerEngine(make_topology(), "greedy")
        engine.run(make_jobs(), stop_after=2)
        snap = engine.snapshot()
        fresh = SchedulerEngine.from_snapshot(snap)
        with pytest.raises(ValueError):
            fresh.run(make_jobs(), resume_from=snap)

    def test_resume_into_mismatched_allocator_rejected(self):
        engine = SchedulerEngine(make_topology(), "greedy")
        engine.run(make_jobs(), stop_after=2)
        snap = engine.snapshot()
        other = SchedulerEngine(make_topology(), "balanced")
        with pytest.raises(ValueError, match="allocator"):
            other.run(resume_from=snap)

    def test_tampered_checkpoint_rejected(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        engine = SchedulerEngine(make_topology(), "greedy")
        engine.run(make_jobs(), stop_after=3, checkpoint_path=ckpt)
        body, _, _ = ckpt.read_text().rpartition("#sha256:")
        data = json.loads(body)
        data["queue"] = []
        # Rewritten without a footer (a legacy-style file): the object
        # digest still catches the tampering.
        ckpt.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="digest"):
            load_snapshot(ckpt)

    def test_result_file_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "run.json"
        engine = SchedulerEngine(make_topology(), "greedy")
        dump_result(engine.run(make_jobs()), path)
        with pytest.raises(ValueError, match="checkpoint"):
            load_snapshot(path)


@given(
    stop_after=st.integers(min_value=1, max_value=60),
    allocator=st.sampled_from(["default", "greedy", "balanced", "adaptive"]),
    faulty=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_pause_anywhere_is_bit_identical(stop_after, allocator, faulty):
    """Property: no interruption index can perturb the simulation."""
    topo = make_topology()
    jobs = make_jobs()
    faults = make_faults(topo, jobs) if faulty else None
    engine = SchedulerEngine(topo, allocator)
    paused = engine.run(jobs, faults=faults, stop_after=stop_after)
    if paused is not None:
        # The run finished in fewer than ``stop_after`` batches.
        assert result_to_dict(paused) == baseline(allocator, faulty)
        return
    snap = engine.snapshot()
    fresh = SchedulerEngine.from_snapshot(snap)
    result = fresh.run(resume_from=snap)
    assert result_to_dict(result) == baseline(allocator, faulty)
