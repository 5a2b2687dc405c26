"""Stateful fuzzing of the interactive controller.

Hypothesis drives random command sequences (sbatch / advance / scancel /
scontrol down, drain and resume) against :class:`SlurmCluster` under
each queue and interruption policy, and checks the global invariants
after every step: counters never drift, node accounting matches the
running set, every job is in exactly one lifecycle state, completed
jobs have consistent timestamps, and the engine-level battery of
:class:`~repro.validate.InvariantChecker` holds over the controller's
engine and run state. The engine verifies every extended pass against a
full pass.
"""

import dataclasses

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis import strategies as st

from repro.slurm import JobState, SlurmCluster
from repro.topology import tree_from_leaf_sizes
from repro.validate import InvariantChecker

N_NODES = 18

node_sets = st.lists(
    st.integers(min_value=0, max_value=N_NODES - 1), min_size=1, max_size=4
)


class SlurmClusterMachine(RuleBasedStateMachine):
    @initialize(
        policy=st.sampled_from(["fifo", "backfill", "conservative"]),
        interrupt_policy=st.sampled_from(["requeue", "checkpoint", "abandon"]),
    )
    def setup(self, policy, interrupt_policy):
        self.cluster = SlurmCluster(
            tree_from_leaf_sizes([6, 6, 6]),
            allocator="balanced",
            policy=policy,
            interrupt_policy=interrupt_policy,
            checkpoint_interval=50.0,
        )
        engine = self.cluster._engine
        engine.config = dataclasses.replace(engine.config, verify_incremental=True)
        self.checker = InvariantChecker()
        self.submitted = []

    @rule(
        nodes=st.integers(min_value=1, max_value=N_NODES),
        runtime=st.floats(min_value=1.0, max_value=300.0),
        comm=st.booleans(),
    )
    def sbatch(self, nodes, runtime, comm):
        if comm and nodes > 1:
            jid = self.cluster.sbatch(
                nodes=nodes, runtime=runtime, kind="comm", pattern="rhvd"
            )
        else:
            jid = self.cluster.sbatch(nodes=nodes, runtime=runtime)
        self.submitted.append(jid)

    @rule(seconds=st.floats(min_value=0.0, max_value=500.0))
    def advance(self, seconds):
        self.cluster.advance(seconds)

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def scancel_some_job(self, pick):
        candidates = [
            j
            for j in self.submitted
            if self.cluster.job_state(j) in (JobState.PENDING, JobState.RUNNING)
        ]
        if candidates:
            self.cluster.scancel(candidates[pick % len(candidates)])

    @rule(nodes=node_sets)
    def scontrol_down(self, nodes):
        self.cluster.scontrol_down(nodes)

    @rule(nodes=node_sets)
    def scontrol_drain(self, nodes):
        self.cluster.scontrol_drain(nodes)

    @rule(nodes=node_sets)
    def scontrol_resume(self, nodes):
        self.cluster.scontrol_resume(nodes)

    @invariant()
    def counters_consistent(self):
        if not hasattr(self, "cluster"):
            return
        self.cluster.state.validate()

    @invariant()
    def engine_invariants_hold(self):
        if not hasattr(self, "cluster"):
            return
        self.checker.check_engine(self.cluster._engine, self.cluster._run)

    @invariant()
    def every_job_has_one_state(self):
        if not hasattr(self, "cluster"):
            return
        for jid in self.submitted:
            state = self.cluster.job_state(jid)
            assert state in (
                JobState.PENDING,
                JobState.RUNNING,
                JobState.COMPLETED,
                JobState.CANCELLED,
                JobState.FAILED,
            )

    @invariant()
    def running_jobs_hold_exactly_their_nodes(self):
        if not hasattr(self, "cluster"):
            return
        total_busy = sum(
            q.nodes for q in self.cluster.squeue() if q.state == JobState.RUNNING
        )
        assert total_busy == self.cluster.state.total_busy

    @invariant()
    def completed_jobs_have_consistent_times(self):
        if not hasattr(self, "cluster"):
            return
        for record in self.cluster.history:
            assert record.finish_time >= record.start_time
            assert record.start_time >= record.job.submit_time - 1e-9
            assert record.finish_time <= self.cluster.now + 1e-9


TestSlurmClusterStateful = SlurmClusterMachine.TestCase
TestSlurmClusterStateful.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
