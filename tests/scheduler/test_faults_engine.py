"""Engine fault handling: interruption policies, accounting, determinism."""

import pytest

from repro.cluster.job import Job, JobKind
from repro.faults import FaultEvent, FaultGeneratorConfig, generate_faults
from repro.scheduler.engine import EngineConfig, SchedulerEngine
from repro.topology import two_level_tree


@pytest.fixture
def topo():
    return two_level_tree(n_leaves=4, nodes_per_leaf=8)


def compute_jobs(n=4, nodes=8, runtime=1000.0):
    return [
        Job(job_id=i, submit_time=0.0, nodes=nodes, runtime=runtime)
        for i in range(n)
    ]


def fingerprint(result):
    return [
        (r.job.job_id, r.start_time, r.finish_time, r.nodes.tolist(),
         r.requeues, r.wasted_node_seconds, r.failed)
        for r in result.records
    ]


class TestZeroFaultEquivalence:
    def test_none_and_empty_fault_lists_are_identical(self, topo):
        engine = SchedulerEngine(topo, "greedy")
        base = engine.run(compute_jobs())
        empty = engine.run(compute_jobs(), faults=[])
        assert fingerprint(base) == fingerprint(empty)
        assert base.unstarted == [] and empty.unstarted == []

    def test_fault_free_records_carry_zero_fault_fields(self, topo):
        result = SchedulerEngine(topo, "balanced").run(compute_jobs())
        for r in result.records:
            assert r.requeues == 0 and r.wasted_node_seconds == 0.0 and not r.failed
        assert result.failed_count == 0
        assert result.wasted_node_hours == 0.0


class TestRequeue:
    def test_wasted_equals_elapsed_times_nodes(self, topo):
        engine = SchedulerEngine(topo, "greedy")
        faults = [FaultEvent(400.0, "down", (0,)), FaultEvent(600.0, "up", (0,))]
        result = engine.run(compute_jobs(), faults=faults)
        hit = [r for r in result.records if r.requeues == 1]
        assert len(hit) == 1
        (rec,) = hit
        # interrupted at t=400 after starting at t=0 on 8 nodes
        assert rec.wasted_node_seconds == 400.0 * 8
        # restarted once the cluster had room again, ran in full
        assert rec.finish_time - rec.start_time == 1000.0
        assert rec.gross_node_seconds == rec.node_seconds + 400.0 * 8
        assert engine.last_stats.faults_injected == 1
        assert engine.last_stats.jobs_interrupted == 1
        assert engine.last_stats.jobs_requeued == 1

    def test_summary_aggregates(self, topo):
        faults = [FaultEvent(400.0, "down", (0,)), FaultEvent(600.0, "up", (0,))]
        result = SchedulerEngine(topo, "greedy").run(compute_jobs(), faults=faults)
        summary = result.summary()
        assert summary["total_requeues"] == 1.0
        assert summary["wasted_node_hours"] == pytest.approx(400.0 * 8 / 3600.0)
        assert summary["failed_jobs"] == 0.0
        assert summary["unstarted_jobs"] == 0.0


class TestCheckpoint:
    def test_restart_runs_only_the_remainder(self, topo):
        cfg = EngineConfig(interrupt_policy="checkpoint", checkpoint_interval=150.0)
        faults = [FaultEvent(400.0, "down", (0,)), FaultEvent(600.0, "up", (0,))]
        result = SchedulerEngine(topo, "greedy", cfg).run(compute_jobs(), faults=faults)
        (rec,) = [r for r in result.records if r.requeues == 1]
        # two checkpoints completed at 150/300; 100s of work lost
        assert rec.wasted_node_seconds == 100.0 * 8
        assert rec.finish_time - rec.start_time == pytest.approx(700.0)


class TestAbandon:
    def test_job_fails_and_goodput_excludes_it(self, topo):
        cfg = EngineConfig(interrupt_policy="abandon")
        faults = [FaultEvent(400.0, "down", (0,)), FaultEvent(600.0, "up", (0,))]
        result = SchedulerEngine(topo, "greedy", cfg).run(compute_jobs(), faults=faults)
        assert result.failed_count == 1
        (rec,) = [r for r in result.records if r.failed]
        assert rec.finish_time == 400.0
        assert rec.wasted_node_seconds == 400.0 * 8
        assert rec.requeues == 0
        completed = [r for r in result.records if not r.failed]
        assert result.goodput_node_hours == pytest.approx(
            sum(r.node_seconds for r in completed) / 3600.0
        )


class TestEventSemantics:
    def test_job_finishing_at_failure_instant_completes(self, topo):
        # job runs [0, 400); its node dies exactly at t=400
        jobs = [Job(job_id=1, submit_time=0.0, nodes=8, runtime=400.0)]
        faults = [FaultEvent(400.0, "down", (0,)), FaultEvent(500.0, "up", (0,))]
        result = SchedulerEngine(topo, "greedy").run(jobs, faults=faults)
        (rec,) = result.records
        assert not rec.failed and rec.requeues == 0
        assert rec.finish_time == 400.0

    def test_back_to_back_windows_keep_node_down(self, topo):
        # outage A ends at t=300 exactly as outage B begins; the node
        # must stay unavailable, so the full-cluster job waits until 500
        jobs = [Job(job_id=1, submit_time=100.0, nodes=32, runtime=50.0)]
        faults = [
            FaultEvent(50.0, "down", (3,)), FaultEvent(300.0, "up", (3,)),
            FaultEvent(300.0, "down", (3,)), FaultEvent(500.0, "up", (3,)),
        ]
        result = SchedulerEngine(topo, "greedy").run(jobs, faults=faults)
        (rec,) = result.records
        assert rec.start_time == 500.0

    def test_submission_sees_post_fault_availability(self, topo):
        # fault and submission at the same instant: the job must not
        # land on the dying node
        jobs = [Job(job_id=1, submit_time=200.0, nodes=32, runtime=10.0)]
        faults = [FaultEvent(200.0, "down", (0,)), FaultEvent(10_000.0, "up", (0,))]
        result = SchedulerEngine(topo, "greedy").run(jobs, faults=faults)
        (rec,) = result.records
        assert rec.start_time == 10_000.0  # had to wait for the node
        assert rec.requeues == 0  # never started on the dying node


class TestUnstarted:
    def test_jobs_that_never_fit_are_reported(self, topo):
        # node 0 goes down forever; the full-machine job can never start
        jobs = [Job(job_id=1, submit_time=0.0, nodes=32, runtime=10.0)]
        faults = [FaultEvent(0.0, "down", (0,))]
        result = SchedulerEngine(topo, "greedy").run(jobs, faults=faults)
        assert result.records == []
        assert [j.job_id for j in result.unstarted] == [1]
        assert result.summary()["unstarted_jobs"] == 1.0


class TestDeterminism:
    @pytest.mark.parametrize("allocator", ["default", "greedy", "balanced", "adaptive"])
    def test_same_fault_seed_identical_records(self, topo, allocator):
        cfg = FaultGeneratorConfig(rate=8.0, horizon=8000.0, seed=11)
        jobs = compute_jobs(n=8, nodes=4, runtime=900.0)
        engine = SchedulerEngine(topo, allocator, EngineConfig(validate_state=True))
        a = engine.run(jobs, faults=generate_faults(topo, cfg))
        b = engine.run(jobs, faults=generate_faults(topo, cfg))
        assert fingerprint(a) == fingerprint(b)

    def test_comm_jobs_survive_interruption(self, topo):
        from repro.patterns import RecursiveDoubling
        from repro.cluster.job import CommComponent

        comp = (CommComponent(RecursiveDoubling(), 0.7),)
        jobs = [
            Job(job_id=i, submit_time=0.0, nodes=8, runtime=1000.0,
                kind=JobKind.COMM, comm=comp)
            for i in range(4)
        ]
        faults = [FaultEvent(300.0, "down", (0, 1)), FaultEvent(900.0, "up", (0, 1))]
        engine = SchedulerEngine(topo, "balanced", EngineConfig(validate_state=True))
        result = engine.run(jobs, faults=faults)
        assert result.requeue_count >= 1
        restarted = [r for r in result.records if r.requeues]
        for r in restarted:
            assert r.cost_jobaware  # repriced on the restart's placement


class TestConfigValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="interruption policy"):
            EngineConfig(interrupt_policy="retry")

    def test_bad_checkpoint_interval_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            EngineConfig(checkpoint_interval=0.0)

    def test_out_of_range_fault_node_rejected(self, topo):
        engine = SchedulerEngine(topo, "greedy")
        faults = [FaultEvent(1.0, "down", (99,))]
        with pytest.raises(ValueError, match="99"):
            engine.run(compute_jobs(), faults=faults)
