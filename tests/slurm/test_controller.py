"""Tests for the interactive SLURM-style controller."""

from collections import Counter

import numpy as np
import pytest

from repro.allocation import allocator_names
from repro.scheduler import EngineConfig, simulate
from repro.scheduler.serialize import record_to_dict
from repro.cluster import CommComponent, Job, JobKind
from repro.cost.leafpair import clear_leaf_pair_cache
from repro.faults import FaultEvent
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

    Float times keep every finish and submit instant distinct.
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


PARITY_TREES = {
    "unequal": tree_from_leaf_sizes([6, 8, 4, 10, 8]),
    "three-level": three_level_tree(2, 3, 6),
}
COMPUTE_RUNTIMES = (100.0, 200.0)


def fault_parity_trace(n_nodes, seed, n=40, n_faults=6):
    """Seeded jobs and down/up faults, each submit and fault at its own instant.

    An instant is whole seconds plus k/1024, with k drawn without
    replacement, so the sums below are exact and the controller's clock
    lands on every instant. Compute jobs run a whole number of seconds
    from ``COMPUTE_RUNTIMES``, so a compute job finishes at the fraction
    of the instant it started at: a chain of them begun at a submit or
    fault keeps a fraction no other submit or fault has, and jobs
    started in one pass with equal runtimes finish together. Comm jobs
    (Eq. 7) and checkpoint-resumed jobs end at arbitrary floats. Every
    fault names 1-3 nodes and is followed by an up event for them, so
    every job can start eventually.
    """
    rng = np.random.default_rng(seed)
    n_instants = n + 2 * n_faults
    fractions = rng.choice(np.arange(1, 1024), n_instants, replace=False) / 1024
    instants = (np.cumsum(rng.integers(1, 10, n_instants)) + fractions).tolist()
    fault_at = rng.choice(n_instants, 2 * n_faults, replace=False)
    faults = []
    for pair in rng.permutation(fault_at).reshape(n_faults, 2):
        down, up = sorted(instants[i] for i in pair)
        nodes = tuple(int(x) for x in rng.choice(n_nodes, rng.integers(1, 4), replace=False))
        faults += [FaultEvent(down, "down", nodes), FaultEvent(up, "up", nodes)]
    jobs = []
    for t in np.delete(instants, fault_at).tolist():
        job_id = len(jobs) + 1
        if rng.random() < 0.5:
            pattern = get_pattern(("rhvd", "rd", "binomial", "ring")[rng.integers(4)])
            comm = (CommComponent(pattern, float(rng.uniform(0.3, 0.9))),)
            nodes = int(rng.integers(2, n_nodes // 3 + 1))
            runtime = float(rng.uniform(60.0, 300.0))
            jobs.append(Job(job_id, t, nodes, runtime, JobKind.COMM, comm))
        else:
            nodes = int(rng.integers(1, n_nodes // 3 + 1))
            runtime = COMPUTE_RUNTIMES[rng.integers(len(COMPUTE_RUNTIMES))]
            jobs.append(Job(job_id, t, nodes, runtime))
    return jobs, sorted(faults, key=lambda f: f.time)


def replay_on_controller(online, jobs, faults):
    """Replay a trace with advance, sbatch, scontrol_down/resume; then drain."""
    script = sorted(
        [(job.submit_time, job) for job in jobs] + [(f.time, f) for f in faults],
        key=lambda item: item[0],
    )
    for t, item in script:
        online.advance(t - online.now)
        assert online.now == t
        if isinstance(item, Job):
            online.sbatch(
                nodes=item.nodes,
                runtime=item.runtime,
                kind="comm" if item.is_comm_intensive else "compute",
                pattern=item.comm[0].pattern if item.comm else None,
                comm_fraction=item.comm[0].fraction if item.comm else 0.7,
            )
        elif item.is_down:
            online.scontrol_down(list(item.nodes))
        else:
            online.scontrol_resume(list(item.nodes))
    online.drain()
    return online.history


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

    @pytest.mark.parametrize(
        "policy, trees, seed",
        [
            ("backfill", ("unequal", "three-level"), 0),
            ("fifo", ("unequal",), 1),
            ("conservative", ("three-level",), 2),
        ],
    )
    def test_same_records_as_engine_under_faults(self, policy, trees, seed):
        """Faults, interruptions and same-instant finishes: identical records."""
        same_instant = interrupted = 0
        for tree in trees:
            topo = PARITY_TREES[tree]
            jobs, faults = fault_parity_trace(topo.n_nodes, seed)
            for allocator in allocator_names():
                for interrupt in ("requeue", "checkpoint", "abandon"):
                    config = EngineConfig(
                        policy=policy,
                        interrupt_policy=interrupt,
                        checkpoint_interval=50.0,
                    )
                    clear_leaf_pair_cache()
                    batch = simulate(topo, jobs, allocator, config=config, faults=faults)
                    clear_leaf_pair_cache()
                    online = SlurmCluster(
                        topo,
                        allocator,
                        policy=policy,
                        interrupt_policy=interrupt,
                        checkpoint_interval=50.0,
                    )
                    history = replay_on_controller(online, jobs, faults)

                    case = (tree, allocator, interrupt)
                    assert batch.unstarted == [], case
                    assert len(history) == len(batch.records) == len(jobs), case
                    assert {r.job.job_id: record_to_dict(r) for r in history} == {
                        r.job.job_id: record_to_dict(r) for r in batch.records
                    }, case
                    finishes = Counter(r.finish_time for r in batch.records if not r.failed)
                    same_instant += sum(count > 1 for count in finishes.values())
                    interrupted += sum(r.requeues > 0 or r.failed for r in batch.records)
        assert same_instant > 0
        assert interrupted > 0
