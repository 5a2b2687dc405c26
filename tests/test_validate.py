"""Runtime invariant checking: clean runs pass, corruption is named."""

import numpy as np
import pytest

from repro.cluster import ClusterState, Job, JobKind
from repro.cluster.state import AllocationRecord, Takes
from repro.faults import FaultGeneratorConfig, generate_faults
from repro.scheduler.engine import EngineConfig, SchedulerEngine
from repro.scheduler.queue_policy import JobQueue
from repro.validate import (
    InvariantChecker,
    InvariantViolation,
    check_cluster_state,
    check_queue_arrays,
)

from .runs.test_integrity_fuzz import make_jobs, make_topology


class TestClusterStateChecks:
    def test_fresh_state_is_clean(self):
        state = ClusterState(make_topology())
        assert check_cluster_state(state) == []

    def test_occupied_state_is_clean(self):
        state = ClusterState(make_topology())
        state.allocate(1, np.arange(5), JobKind.COMPUTE)
        state.allocate(2, np.arange(5, 9), JobKind.COMM)
        assert check_cluster_state(state) == []

    def test_counter_drift_is_named(self):
        state = ClusterState(make_topology())
        state.allocate(1, np.arange(4), JobKind.COMPUTE)
        state.leaf_free[0] += 1
        names = " ".join(check_cluster_state(state))
        assert "leaf-free-conservation" in names

    def test_double_allocation_is_named(self):
        state = ClusterState(make_topology())
        state.allocate(1, np.arange(4), JobKind.COMPUTE)
        # Forge a second record holding an overlapping node.
        nodes = np.array([3, 4])
        leaves = state.topology.leaf_of_node[nodes]
        state.running[99] = AllocationRecord(
            job_id=99,
            nodes=nodes,
            kind=JobKind.COMPUTE,
            takes=Takes(*np.unique(leaves, return_counts=True)),
        )
        names = " ".join(check_cluster_state(state))
        assert "no-double-allocation" in names

    def test_node_job_index_drift_is_named(self):
        state = ClusterState(make_topology())
        state.allocate(1, np.arange(4), JobKind.COMPUTE)
        state.node_job[2] = 42
        names = " ".join(check_cluster_state(state))
        assert "node-job-index" in names

    def test_allocatable_mask_drift_is_named(self):
        state = ClusterState(make_topology())
        state.allocate(1, np.arange(4), JobKind.COMPUTE)
        state.release(1)
        assert check_cluster_state(state) == []
        state.allocatable[2] = False  # a free UP node the gather would skip
        names = " ".join(check_cluster_state(state))
        assert "allocatable-mask" in names
        with pytest.raises(AssertionError, match="allocatable"):
            state.validate()

    def test_leaf_takes_drift_is_named(self):
        state = ClusterState(make_topology())
        state.allocate(1, np.arange(4), JobKind.COMPUTE)
        record = state.running[1]
        # same nodes, but takes that would move the wrong leaf's counters
        state.running[1] = AllocationRecord(
            job_id=1, nodes=record.nodes, kind=record.kind, takes=Takes([1], [4])
        )
        names = " ".join(check_cluster_state(state))
        assert "leaf-takes" in names
        with pytest.raises(AssertionError, match="takes"):
            state.validate()

    def test_drain_count_drift_is_named(self):
        state = ClusterState(make_topology())
        state.allocate(1, np.arange(4), JobKind.COMPUTE)
        state.mark_drain([2, 6])
        assert state.n_draining == 2
        assert check_cluster_state(state) == []
        # a count of 0 would let a release hand node 2 back as allocatable
        state.n_draining = 0
        found = check_cluster_state(state)
        assert found == [
            "drain-count: the state counts 0 DRAINING node(s), the "
            "availability array holds 2"
        ]
        with pytest.raises(AssertionError, match="drain count"):
            state.validate()

    def test_all_violations_reported_not_just_first(self):
        state = ClusterState(make_topology())
        state.allocate(1, np.arange(4), JobKind.COMPUTE)
        state.leaf_free[0] += 1
        state.node_job[2] = 42
        found = check_cluster_state(state)
        assert len(found) >= 2


class TestQueueArrays:
    def test_value_drift_is_named(self):
        queue = JobQueue(make_jobs())
        assert check_queue_arrays(queue) == []
        queue.nodes[3] += 1  # the mask would read a size the job does not have
        queue.runtime[5] = 0.0
        found = check_queue_arrays(queue)
        assert len(found) == 2
        assert all(v.startswith("queue-arrays") for v in found)
        assert "first at queue index 3" in found[0]

    def test_engine_battery_names_a_job_the_arrays_missed(self):
        engine = SchedulerEngine(make_topology(), "greedy")
        assert engine.run(make_jobs(), stop_after=4) is None
        rs = engine._run_state
        # a list append that skips the arrays; no queued job has this runtime
        rs.queue._jobs.append(Job(999, 0.0, 1, 12345.5))
        checker = InvariantChecker(raise_on_violation=False)
        found = checker.check_engine(engine, rs)
        assert any(v.startswith("queue-arrays") for v in found)


class TestChecker:
    def test_version_monotonic_is_stateful(self):
        checker = InvariantChecker()
        state = ClusterState(make_topology())
        state.allocate(1, np.arange(3), JobKind.COMPUTE)
        assert checker.check_state(state) == []
        state.version -= 2
        found = checker.check_state(state)
        assert any("version-monotonic" in v for v in found)

    def test_violation_carries_full_list(self):
        with pytest.raises(InvariantViolation) as info:
            raise InvariantViolation(["a: broke", "b: broke"])
        assert info.value.violations == ["a: broke", "b: broke"]
        assert "2 invariant violation(s)" in str(info.value)


@pytest.mark.parametrize("policy", ["backfill", "fifo", "conservative"])
@pytest.mark.parametrize("allocator", ["default", "greedy", "balanced", "adaptive"])
def test_engine_invariants_hold_under_faults(policy, allocator):
    """The acceptance matrix: every policy x allocator, with faults."""
    topo = make_topology()
    jobs = make_jobs()
    horizon = 1.5 * max(j.submit_time for j in jobs)
    faults = generate_faults(
        topo, FaultGeneratorConfig(rate=3.0, horizon=horizon, seed=11)
    )
    config = EngineConfig(policy=policy, validate_invariants=1, collect_perf=True)
    engine = SchedulerEngine(topo, allocator, config)
    result = engine.run(jobs, faults=faults)
    assert result.perf["counters"]["engine.invariant_checks"] > 0
    assert "engine.invariant_violations" not in result.perf["counters"]


def test_invariant_checking_does_not_perturb_results():
    from repro.scheduler.serialize import result_to_dict

    baseline = SchedulerEngine(make_topology(), "balanced").run(make_jobs())
    checked = SchedulerEngine(
        make_topology(), "balanced", EngineConfig(validate_invariants=1)
    ).run(make_jobs())
    assert result_to_dict(baseline) == result_to_dict(checked)


def test_validate_invariants_survives_checkpoint_roundtrip():
    config = EngineConfig(validate_invariants=3)
    engine = SchedulerEngine(make_topology(), "greedy", config)
    assert engine.run(make_jobs(), stop_after=4) is None
    snapshot = engine.snapshot()
    restored = SchedulerEngine.from_snapshot(snapshot)
    assert restored.config.validate_invariants == 3


def test_negative_interval_rejected():
    with pytest.raises(ValueError, match="validate_invariants"):
        EngineConfig(validate_invariants=-1)
