"""SlurmCluster availability commands: scontrol down/drain/resume."""

import pytest

from repro.slurm import SlurmCluster
from repro.slurm.render import format_sinfo
from repro.topology import two_level_tree


@pytest.fixture
def cluster():
    return SlurmCluster(two_level_tree(n_leaves=2, nodes_per_leaf=4), "greedy")


class TestScontrolDown:
    def test_idle_nodes_go_down_and_sinfo_reports_them(self, cluster):
        assert cluster.scontrol_down([0, 1]).tolist() == [0, 1]
        rows = cluster.sinfo()
        assert rows[0].down == 2 and rows[0].free == 2
        assert rows[1].down == 0
        text = format_sinfo(rows)
        assert "DOWN" in text.splitlines()[0] and "DRAIN" in text.splitlines()[0]

    def test_accepts_node_and_switch_names(self, cluster):
        name = cluster.topology.node_name(2)
        assert cluster.scontrol_down(name).tolist() == [2]
        leaf = cluster.topology.leaf_names[1]
        assert cluster.scontrol_down(leaf).tolist() == [4, 5, 6, 7]
        with pytest.raises(KeyError):
            cluster.scontrol_down("no-such-node")

    def test_requeue_policy_restarts_interrupted_job(self, cluster):
        jid = cluster.sbatch(nodes=8, runtime=1000.0)
        cluster.advance(300.0)
        cluster.scontrol_down([0])
        # job lost its nodes; with one node down it cannot restart yet
        assert cluster.job_state(jid) == "PENDING"
        cluster.scontrol_resume([0])
        assert cluster.job_state(jid) == "RUNNING"
        cluster.advance(1000.0)
        assert cluster.job_state(jid) == "COMPLETED"
        (record,) = cluster.history
        assert record.requeues == 1
        assert record.wasted_node_seconds == 300.0 * 8

    def test_abandon_policy_fails_the_job(self):
        cluster = SlurmCluster(
            two_level_tree(n_leaves=2, nodes_per_leaf=4),
            "greedy",
            interrupt_policy="abandon",
        )
        jid = cluster.sbatch(nodes=4, runtime=500.0)
        cluster.advance(100.0)
        cluster.scontrol_down([0, 1, 2, 3])
        assert cluster.job_state(jid) == "FAILED"
        (record,) = cluster.history
        assert record.failed and record.wasted_node_seconds == 100.0 * 4

    def test_checkpoint_policy_resumes_remainder(self):
        cluster = SlurmCluster(
            two_level_tree(n_leaves=2, nodes_per_leaf=4),
            "greedy",
            interrupt_policy="checkpoint",
            checkpoint_interval=100.0,
        )
        jid = cluster.sbatch(nodes=8, runtime=1000.0)
        cluster.advance(250.0)
        cluster.scontrol_down([7])
        cluster.scontrol_resume([7])
        assert cluster.job_state(jid) == "RUNNING"
        cluster.advance(799.0)
        assert cluster.job_state(jid) == "RUNNING"  # 800s remainder
        cluster.advance(1.5)
        assert cluster.job_state(jid) == "COMPLETED"
        (record,) = cluster.history
        assert record.wasted_node_seconds == 50.0 * 8


class TestDrainAndResume:
    def test_drain_lets_running_jobs_finish(self, cluster):
        jid = cluster.sbatch(nodes=4, runtime=100.0)
        drained = cluster.scontrol_drain([0, 1, 2, 3])
        assert drained.size == 4
        assert cluster.job_state(jid) == "RUNNING"
        cluster.advance(101.0)
        assert cluster.job_state(jid) == "COMPLETED"
        # drained nodes are not reusable afterwards
        jid2 = cluster.sbatch(nodes=8, runtime=10.0)
        assert cluster.job_state(jid2) == "PENDING"
        assert cluster.sinfo()[0].draining == 4

    def test_resume_triggers_a_scheduling_pass(self, cluster):
        cluster.scontrol_down([0, 1, 2, 3, 4, 5])
        jid = cluster.sbatch(nodes=4, runtime=10.0)
        assert cluster.job_state(jid) == "PENDING"
        cluster.scontrol_resume([0, 1, 2, 3])
        assert cluster.job_state(jid) == "RUNNING"

    def test_validation_config_rejected(self):
        with pytest.raises(ValueError, match="interruption policy"):
            SlurmCluster(two_level_tree(2, 4), interrupt_policy="retry")
        with pytest.raises(ValueError, match="checkpoint_interval"):
            SlurmCluster(two_level_tree(2, 4), checkpoint_interval=-1.0)


class TestScancelDiagnostics:
    def test_completed_job_raises_value_error(self, cluster):
        jid = cluster.sbatch(nodes=2, runtime=10.0)
        cluster.advance(11.0)
        with pytest.raises(ValueError, match="already COMPLETED"):
            cluster.scancel(jid)

    def test_cancelled_job_raises_value_error(self, cluster):
        jid = cluster.sbatch(nodes=2, runtime=10.0)
        cluster.scancel(jid)
        with pytest.raises(ValueError, match="already CANCELLED"):
            cluster.scancel(jid)

    def test_unknown_job_raises_key_error(self, cluster):
        with pytest.raises(KeyError, match="unknown job 42"):
            cluster.scancel(42)

    def test_failed_job_raises_value_error(self):
        cluster = SlurmCluster(
            two_level_tree(n_leaves=2, nodes_per_leaf=4),
            "greedy",
            interrupt_policy="abandon",
        )
        jid = cluster.sbatch(nodes=8, runtime=100.0)
        cluster.scontrol_down([0])
        with pytest.raises(ValueError, match="already FAILED"):
            cluster.scancel(jid)
