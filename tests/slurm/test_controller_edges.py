"""Edge-case tests for the interactive controller."""

import pytest

from repro.cluster import Job
from repro.patterns import RecursiveDoubling
from repro.scheduler import EngineConfig, simulate
from repro.scheduler.serialize import record_to_dict
from repro.slurm import JobState, SlurmCluster
from repro.topology import two_level_tree


@pytest.fixture
def cluster():
    return SlurmCluster(two_level_tree(2, 4), allocator="adaptive")


class TestDrain:
    def test_drain_cap_stops_early(self, cluster):
        cluster.sbatch(nodes=8, runtime=100.0)
        cluster.sbatch(nodes=8, runtime=100.0)
        cluster.drain(max_seconds=50.0)
        # first job still running at the cap
        assert any(
            q.state == JobState.RUNNING for q in cluster.squeue()
        ) or cluster.now <= 100.0

    def test_drain_raises_on_starved_queue(self, cluster):
        """A pending job that nothing will ever unblock is an error:
        it signals a deadlocked script."""
        jid = cluster.sbatch(nodes=8, runtime=10.0)
        cluster.drain()
        assert cluster.job_state(jid) == JobState.COMPLETED
        # now: pending job with nothing running
        cluster.sbatch(nodes=8, runtime=5.0)
        big = cluster.sbatch(nodes=8, runtime=5.0)
        cluster.drain()
        assert cluster.job_state(big) == JobState.COMPLETED

    def test_pattern_instance_accepted(self, cluster):
        jid = cluster.sbatch(nodes=4, runtime=5.0, kind="comm",
                             pattern=RecursiveDoubling())
        cluster.drain()
        assert cluster.job_state(jid) == JobState.COMPLETED

    def test_zero_runtime_job(self, cluster):
        jid = cluster.sbatch(nodes=2, runtime=0.0)
        cluster.advance(0.0)
        assert cluster.job_state(jid) == JobState.COMPLETED


class TestAdvanceEdges:
    def test_advance_exactly_to_finish(self, cluster):
        jid = cluster.sbatch(nodes=2, runtime=50.0)
        cluster.advance(50.0)
        assert cluster.job_state(jid) == JobState.COMPLETED
        assert cluster.now == pytest.approx(50.0)

    def test_completion_order_in_history(self, cluster):
        a = cluster.sbatch(nodes=2, runtime=30.0)
        b = cluster.sbatch(nodes=2, runtime=10.0)
        cluster.drain()
        assert [r.job.job_id for r in cluster.history] == [b, a]

    def test_cancel_then_advance_past_stale_finish(self, cluster):
        jid = cluster.sbatch(nodes=2, runtime=20.0)
        cluster.scancel(jid)
        cluster.advance(100.0)  # must skip the stale heap entry cleanly
        assert cluster.job_state(jid) == JobState.CANCELLED
        assert cluster.now == pytest.approx(100.0)

    def test_time_monotone(self, cluster):
        cluster.advance(5.0)
        cluster.advance(0.0)
        assert cluster.now == pytest.approx(5.0)


class TestSameInstantFinishes:
    @pytest.mark.parametrize("policy", ["fifo", "backfill", "conservative"])
    def test_both_finishes_release_before_the_pass(self, policy):
        """Two jobs end at t=100; the blocked 8-node job starts then.

        A pass between the two releases would see one job's nodes free
        and, under conservative, count the other's as free too (its
        finish estimate is clamped to now).
        """
        topo = two_level_tree(2, 4)
        cluster = SlurmCluster(topo, "default", policy=policy)
        cluster.sbatch(nodes=4, runtime=100.0)
        cluster.sbatch(nodes=4, runtime=100.0)
        big = cluster.sbatch(nodes=8, runtime=50.0)
        cluster.advance(100.0)
        (entry,) = cluster.squeue()
        assert (entry.job_id, entry.state, entry.start_time) == (big, JobState.RUNNING, 100.0)
        cluster.drain()

        jobs = [Job(1, 0.0, 4, 100.0), Job(2, 0.0, 4, 100.0), Job(3, 0.0, 8, 50.0)]
        batch = simulate(topo, jobs, "default", config=EngineConfig(policy=policy))
        assert [record_to_dict(r) for r in cluster.history] == [
            record_to_dict(r) for r in batch.records
        ]


class TestPendingCancel:
    def test_cancel_behind_a_blocked_head_keeps_the_carry_in_step(self):
        """Cancelling a pending job voids the pass carry.

        The carry counts queue positions; if the cancel left it standing,
        the next extended pass would start past the new arrival and
        never consider it.
        """
        cluster = SlurmCluster(two_level_tree(2, 4), "default", policy="backfill")
        first = cluster.sbatch(nodes=4, runtime=100.0)
        head = cluster.sbatch(nodes=8, runtime=100.0)
        parked = cluster.sbatch(nodes=4, runtime=1000.0)
        assert [cluster.job_state(j) for j in (first, head, parked)] == [
            JobState.RUNNING,
            JobState.PENDING,
            JobState.PENDING,
        ]
        cluster.scancel(parked)
        small = cluster.sbatch(nodes=2, runtime=10.0)
        assert cluster.job_state(small) == JobState.RUNNING
