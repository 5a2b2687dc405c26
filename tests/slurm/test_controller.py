"""Tests for the interactive SLURM-style controller."""

import numpy as np
import pytest

from repro.allocation import allocator_names
from repro.scheduler import EngineConfig, simulate
from repro.cluster import CommComponent, Job, JobKind
from repro.cost.leafpair import clear_leaf_pair_cache
from repro.patterns import get_pattern
from repro.slurm import JobState, SlurmCluster
from repro.topology import three_level_tree, tree_from_leaf_sizes, two_level_tree


@pytest.fixture
def cluster():
    return SlurmCluster(two_level_tree(2, 4), allocator="balanced")


class TestSbatch:
    def test_immediate_start_when_free(self, cluster):
        jid = cluster.sbatch(nodes=4, runtime=100.0)
        assert cluster.job_state(jid) == JobState.RUNNING

    def test_pending_when_full(self, cluster):
        cluster.sbatch(nodes=8, runtime=100.0)
        jid = cluster.sbatch(nodes=8, runtime=50.0)
        assert cluster.job_state(jid) == JobState.PENDING

    def test_comm_job_needs_pattern(self, cluster):
        with pytest.raises(ValueError, match="pattern"):
            cluster.sbatch(nodes=4, runtime=10.0, kind="comm")

    def test_comm_job_with_pattern_name(self, cluster):
        jid = cluster.sbatch(nodes=8, runtime=100.0, kind="comm", pattern="rhvd")
        assert cluster.job_state(jid) == JobState.RUNNING

    def test_oversized_rejected(self, cluster):
        with pytest.raises(ValueError, match="cluster has"):
            cluster.sbatch(nodes=99, runtime=10.0)

    def test_bad_kind(self, cluster):
        with pytest.raises(ValueError, match="kind"):
            cluster.sbatch(nodes=2, runtime=10.0, kind="gpu")

    def test_io_job_supported(self, cluster):
        jid = cluster.sbatch(nodes=4, runtime=10.0, kind="io")
        assert cluster.job_state(jid) == JobState.RUNNING
        assert sum(r.io_busy for r in cluster.sinfo()) == 4

    def test_submit_time_is_now(self, cluster):
        cluster.advance(42.0)
        jid = cluster.sbatch(nodes=2, runtime=10.0)
        entry = [q for q in cluster.squeue() if q.job_id == jid][0]
        assert entry.submit_time == pytest.approx(42.0)


class TestAdvanceAndComplete:
    def test_job_completes_after_runtime(self, cluster):
        jid = cluster.sbatch(nodes=4, runtime=100.0)
        cluster.advance(99.0)
        assert cluster.job_state(jid) == JobState.RUNNING
        cluster.advance(1.0)
        assert cluster.job_state(jid) == JobState.COMPLETED

    def test_completion_frees_nodes_for_pending(self, cluster):
        cluster.sbatch(nodes=8, runtime=100.0)
        second = cluster.sbatch(nodes=8, runtime=50.0)
        cluster.advance(100.0)
        assert cluster.job_state(second) == JobState.RUNNING

    def test_history_records_metrics(self, cluster):
        cluster.sbatch(nodes=8, runtime=100.0, kind="comm", pattern="rhvd")
        cluster.advance(200.0)
        (record,) = cluster.history
        assert record.total_cost_jobaware > 0
        assert record.execution_time > 0

    def test_drain_completes_everything(self, cluster):
        for _ in range(5):
            cluster.sbatch(nodes=8, runtime=10.0)
        cluster.drain()
        assert len(cluster.history) == 5
        assert cluster.squeue() == []

    def test_negative_advance_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.advance(-1.0)


class TestScancel:
    def test_cancel_pending(self, cluster):
        cluster.sbatch(nodes=8, runtime=100.0)
        jid = cluster.sbatch(nodes=8, runtime=50.0)
        assert cluster.scancel(jid) == JobState.PENDING
        assert cluster.job_state(jid) == JobState.CANCELLED

    def test_cancel_running_frees_nodes(self, cluster):
        jid = cluster.sbatch(nodes=8, runtime=100.0)
        waiting = cluster.sbatch(nodes=8, runtime=50.0)
        assert cluster.scancel(jid) == JobState.RUNNING
        assert cluster.job_state(waiting) == JobState.RUNNING  # promoted

    def test_cancelled_job_never_completes(self, cluster):
        jid = cluster.sbatch(nodes=4, runtime=100.0)
        cluster.scancel(jid)
        cluster.advance(1000.0)
        assert cluster.job_state(jid) == JobState.CANCELLED
        assert cluster.history == []

    def test_cancel_unknown(self, cluster):
        with pytest.raises(KeyError):
            cluster.scancel(7777)


class TestInspection:
    def test_squeue_running_then_pending(self, cluster):
        a = cluster.sbatch(nodes=8, runtime=100.0)
        b = cluster.sbatch(nodes=2, runtime=10.0)
        rows = cluster.squeue()
        assert [r.job_id for r in rows] == [a, b]
        assert rows[0].state == JobState.RUNNING
        assert rows[1].state == JobState.PENDING

    def test_sinfo_tracks_occupancy(self, cluster):
        cluster.sbatch(nodes=4, runtime=100.0, kind="comm", pattern="rd")
        rows = cluster.sinfo()
        assert sum(r.busy for r in rows) == 4
        assert sum(r.comm_busy for r in rows) == 4
        assert sum(r.free for r in rows) == 4

    def test_unknown_job_state(self, cluster):
        with pytest.raises(KeyError):
            cluster.job_state(1234)


def parity_jobs(n_nodes, seed, n=40):
    """A seeded trace with strictly increasing submit times and float runtimes.

    The engine releases same-instant finishes in one batch before one
    pass; the controller runs a pass after each. Float times keep every
    finish and submit instant distinct, so both see the same passes.
    """
    rng = np.random.default_rng(seed)
    jobs, t = [], 0.0
    for job_id in range(1, n + 1):
        t += float(rng.uniform(5.0, 90.0))
        nodes = int(rng.integers(2, n_nodes // 2 + 1))
        runtime = float(rng.uniform(60.0, 900.0))
        if rng.random() < 0.6:
            pattern = get_pattern(("rhvd", "rd", "binomial", "ring")[rng.integers(4)])
            comm = (CommComponent(pattern, float(rng.uniform(0.3, 0.9))),)
            jobs.append(Job(job_id, t, nodes, runtime, JobKind.COMM, comm))
        else:
            jobs.append(Job(job_id, t, nodes, runtime))
    return jobs


class TestParityWithBatchEngine:
    def test_same_decisions_as_engine(self):
        """Same jobs, same allocator -> identical records, bit for bit."""
        trees = {
            "unequal": tree_from_leaf_sizes([6, 8, 4, 10, 8]),
            "three-level": three_level_tree(2, 3, 6),
        }
        for tree, topo in trees.items():
            for allocator in allocator_names():
                for seed in (0, 1, 2):
                    jobs = parity_jobs(topo.n_nodes, seed)
                    clear_leaf_pair_cache()
                    batch = simulate(topo, jobs, allocator, config=EngineConfig())
                    finishes = [r.finish_time for r in batch.records]
                    assert len(set(finishes)) == len(finishes)

                    clear_leaf_pair_cache()
                    online = SlurmCluster(topo, allocator=allocator)
                    clock = 0.0
                    for job in jobs:
                        online.advance(job.submit_time - clock)
                        clock = job.submit_time
                        online.sbatch(
                            nodes=job.nodes,
                            runtime=job.runtime,
                            kind="comm" if job.is_comm_intensive else "compute",
                            pattern=job.comm[0].pattern if job.comm else None,
                            comm_fraction=job.comm[0].fraction if job.comm else 0.7,
                        )
                    online.drain()

                    case = (tree, allocator, seed)
                    assert len(online.history) == len(batch.records), case
                    batch_by_id = {r.job.job_id: r for r in batch.records}
                    for record in online.history:
                        ref = batch_by_id[record.job.job_id]
                        assert record.start_time == ref.start_time, case
                        assert record.finish_time == ref.finish_time, case
                        assert record.nodes.tolist() == ref.nodes.tolist(), case
                        assert record.cost_jobaware == ref.cost_jobaware, case
                        assert record.cost_default == ref.cost_default, case
