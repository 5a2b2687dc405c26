"""Interactive SLURM-style controller (``sbatch`` / ``squeue`` / ``sinfo``).

The batch engine (:mod:`repro.scheduler.engine`) replays a fixed job
log; this facade offers the *online* operating mode a SLURM user
expects: submit jobs as virtual time advances, inspect the queue and
per-switch occupancy, cancel jobs. It holds one run state of the batch
engine and steps the engine on every command: each completion instant,
submission, fault or resume is one batch of
:meth:`~repro.scheduler.engine.SchedulerEngine._step`, the batch loop's
own body (release the instant's finishes together, apply the fault,
admit arrivals, one scheduling pass). Jobs start through the engine's
:meth:`~repro.scheduler.engine.SchedulerEngine.start_job` (allocation,
Eq. 6 pricing against the counterfactual default allocation, Eq. 7
runtime adjustment) and faults interrupt jobs through its fault path, so
a script whose submissions and faults each have an instant of their own
yields the batch engine's records bit for bit, same-instant completions
and interrupted jobs included.

Availability management mirrors ``scontrol update nodename=... state=``:
:meth:`SlurmCluster.scontrol_down` fails nodes immediately (interrupting
their jobs per the configured policy), :meth:`SlurmCluster.scontrol_drain`
stops new work without killing running jobs, and
:meth:`SlurmCluster.scontrol_resume` returns nodes to service. ``sinfo``
reports per-switch DOWN/DRAIN counts alongside occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..allocation.base import Allocator
from ..cluster.job import CommComponent, Job, JobKind
from ..cluster.state import AVAIL_DOWN, AVAIL_DRAINING
from ..cost.model import CostModel
from ..patterns.base import CommunicationPattern
from ..patterns.registry import get_pattern
from ..scheduler.engine import EngineConfig, SchedulerEngine, _JobStream
from ..scheduler.events import Event
from ..scheduler.metrics import JobRecord
from ..topology.tree import TreeTopology
from .._validation import require_fraction, require_non_negative, require_positive_int

__all__ = ["SlurmCluster", "QueueEntry", "SinfoRow", "JobState"]


@dataclass(frozen=True)
class QueueEntry:
    """One ``squeue`` line."""

    job_id: int
    state: str  # "RUNNING" or "PENDING"
    nodes: int
    submit_time: float
    start_time: Optional[float]
    expected_end: Optional[float]


@dataclass(frozen=True)
class SinfoRow:
    """One ``sinfo`` line: occupancy and availability of a leaf switch."""

    switch: str
    nodes: int
    free: int
    busy: int
    comm_busy: int
    io_busy: int = 0
    down: int = 0
    draining: int = 0


class JobState:
    """squeue-style job state labels."""
    RUNNING = "RUNNING"
    PENDING = "PENDING"
    COMPLETED = "COMPLETED"
    CANCELLED = "CANCELLED"
    FAILED = "FAILED"


class SlurmCluster:
    """An online mini-SLURM over the paper's allocation algorithms.

    The constructor builds a
    :class:`~repro.scheduler.engine.SchedulerEngine` from its arguments
    (its :class:`~repro.scheduler.engine.EngineConfig` validates the
    interruption policy and checkpoint interval) and one engine run
    state with no arrival stream: commands put jobs on its queue, change
    node availability, and step the engine at the current time.

    Example::

        cluster = SlurmCluster(theta_like(), allocator="balanced")
        jid = cluster.sbatch(nodes=64, runtime=3600.0, kind="comm",
                             pattern="rhvd")
        cluster.advance(600.0)
        print(cluster.squeue())
    """

    def __init__(
        self,
        topology: TreeTopology,
        allocator: Union[str, Allocator] = "default",
        *,
        policy: str = "backfill",
        cost_model: Optional[CostModel] = None,
        interrupt_policy: str = "requeue",
        checkpoint_interval: float = 3600.0,
    ) -> None:
        self.topology = topology
        self._engine = SchedulerEngine(
            topology,
            allocator,
            EngineConfig(
                policy=policy,
                cost_model=cost_model or CostModel(),
                interrupt_policy=interrupt_policy,
                checkpoint_interval=checkpoint_interval,
            ),
        )
        self.allocator = self._engine.allocator
        self._run = self._engine._begin_run(_JobStream((), topology.n_nodes), None, None)
        self._run.record_sink = self._record
        self.state = self._run.state
        self._now = 0.0
        self._last_id = 0
        self._history: List[JobRecord] = []
        #: COMPLETED, CANCELLED or FAILED, by job id
        self._done: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def sbatch(
        self,
        *,
        nodes: int,
        runtime: float,
        kind: str = "compute",
        pattern: Union[str, CommunicationPattern, None] = None,
        comm_fraction: float = 0.7,
    ) -> int:
        """Submit a job at the current virtual time; returns its job id.

        ``kind`` is ``"compute"``, ``"comm"``, or ``"io"``;
        communication-intensive jobs need a ``pattern`` (registry name
        or instance) and use ``comm_fraction`` of their runtime for it.
        """
        require_positive_int(nodes, "nodes")
        require_non_negative(runtime, "runtime")
        if nodes > self.topology.n_nodes:
            raise ValueError(
                f"job wants {nodes} nodes, the cluster has {self.topology.n_nodes}"
            )
        job_id = self._last_id + 1
        if kind == "comm":
            require_fraction(comm_fraction, "comm_fraction")
            if pattern is None:
                raise ValueError("communication-intensive jobs need a pattern")
            if isinstance(pattern, str):
                pattern = get_pattern(pattern)
            job = Job(job_id, self._now, nodes, runtime, JobKind.COMM,
                      (CommComponent(pattern, comm_fraction),))
        elif kind == "compute":
            job = Job(job_id, self._now, nodes, runtime)
        elif kind == "io":
            job = Job(job_id, self._now, nodes, runtime, JobKind.IO)
        else:
            raise ValueError(
                f"kind must be 'compute', 'comm', or 'io', got {kind!r}"
            )
        self._last_id = job_id
        self._run.queue.append(job)
        self._step()
        return job_id

    def scancel(self, job_id: int) -> str:
        """Cancel a pending or running job; returns its previous state.

        A job id that was never submitted raises ``KeyError``; one that
        already reached a terminal state (COMPLETED / CANCELLED /
        FAILED) raises ``ValueError`` naming that state, matching real
        ``scancel``'s distinct "invalid job id" vs "job already done"
        diagnostics.
        """
        rs = self._run
        previous = self.job_state(job_id)
        if previous == JobState.PENDING:
            rs.queue.take([next(i for i, job in enumerate(rs.queue) if job.job_id == job_id)])
            # the pass carry counts queue positions; removing one voids it
            SchedulerEngine._mark_dirty(rs)
        elif previous == JobState.RUNNING:
            del rs.running[job_id]
            rs.views.remove(job_id)
            self.state.release(job_id)
            self._step()
        else:
            raise ValueError(f"job {job_id} is already {previous}")
        self._done[job_id] = JobState.CANCELLED
        return previous

    def squeue(self) -> List[QueueEntry]:
        """Running jobs (by expected end) then pending jobs (FIFO)."""
        rows = [
            QueueEntry(
                job_id=r.job.job_id,
                state=JobState.RUNNING,
                nodes=r.job.nodes,
                submit_time=r.job.submit_time,
                start_time=r.start_time,
                expected_end=r.finish_time,
            )
            for r in sorted(self._run.running.values(), key=lambda r: r.finish_time)
        ]
        rows.extend(
            QueueEntry(
                job_id=j.job_id,
                state=JobState.PENDING,
                nodes=j.nodes,
                submit_time=j.submit_time,
                start_time=None,
                expected_end=None,
            )
            for j in self._run.queue
        )
        return rows

    def sinfo(self) -> List[SinfoRow]:
        """Per-leaf-switch occupancy and availability."""
        n_leaves = self.topology.n_leaves
        down = np.bincount(
            self.topology.leaf_of_node[self.state.node_avail == AVAIL_DOWN],
            minlength=n_leaves,
        )
        draining = np.bincount(
            self.topology.leaf_of_node[self.state.node_avail == AVAIL_DRAINING],
            minlength=n_leaves,
        )
        rows = []
        for k in range(n_leaves):
            info = self.topology.leaf(k)
            rows.append(
                SinfoRow(
                    switch=info.name,
                    nodes=int(self.topology.leaf_sizes[k]),
                    free=int(self.state.leaf_free[k]),
                    busy=int(self.state.leaf_busy[k]),
                    comm_busy=int(self.state.leaf_comm[k]),
                    io_busy=int(self.state.leaf_io[k]),
                    down=int(down[k]),
                    draining=int(draining[k]),
                )
            )
        return rows

    def job_state(self, job_id: int) -> str:
        """PENDING / RUNNING / COMPLETED / CANCELLED / FAILED."""
        if job_id in self._done:
            return self._done[job_id]
        if job_id in self._run.running:
            return JobState.RUNNING
        if isinstance(job_id, (int, np.integer)) and 0 < job_id <= self._last_id:
            return JobState.PENDING  # submitted, not started, not done
        raise KeyError(f"unknown job {job_id}")

    @property
    def history(self) -> List[JobRecord]:
        """Records of completed jobs, completion order."""
        return list(self._history)

    # ------------------------------------------------------------------
    # node availability (scontrol update state=DOWN / DRAIN / RESUME)
    # ------------------------------------------------------------------

    def _resolve_nodes(self, nodes) -> np.ndarray:
        """Node ids from an int, node name, leaf-switch name, or sequence."""
        if isinstance(nodes, (int, np.integer)):
            return np.asarray([int(nodes)], dtype=np.int64)
        if isinstance(nodes, str):
            try:
                return np.asarray([self.topology.node_id(nodes)], dtype=np.int64)
            except KeyError:
                pass
            info = self.topology.switch(nodes)  # raises KeyError if unknown
            if not info.is_leaf:
                raise ValueError(
                    f"switch {nodes!r} is not a leaf; name a leaf switch or nodes"
                )
            return self.topology.leaf_nodes(info.leaf_lo)
        out: List[int] = []
        for n in nodes:
            out.extend(int(x) for x in self._resolve_nodes(n))
        return np.asarray(sorted(set(out)), dtype=np.int64)

    def scontrol_down(self, nodes) -> np.ndarray:
        """Fail nodes now (``scontrol update state=DOWN reason=...``).

        ``nodes`` may be a node id, a node name, a leaf-switch name
        (failing the whole switch), or a sequence of those. Running jobs
        touching the nodes are interrupted per ``interrupt_policy``
        (requeued at the current time, checkpoint-resumed, or FAILED).
        Returns the node ids newly marked DOWN.
        """
        transitioned = self._engine._apply_fault_down(
            self._now, self._run, self._resolve_nodes(nodes)
        )
        self._step()
        return transitioned

    def scontrol_drain(self, nodes) -> np.ndarray:
        """Drain nodes: running jobs finish, nothing new lands on them."""
        return self.state.mark_drain(self._resolve_nodes(nodes))

    def scontrol_resume(self, nodes) -> np.ndarray:
        """Return DOWN/DRAINING nodes to service and reschedule."""
        transitioned = self.state.mark_up(self._resolve_nodes(nodes))
        self._step()
        return transitioned

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Advance virtual time, stepping the engine at each completion instant."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds} seconds")
        deadline = self._now + seconds
        events = self._run.events
        while events and events.peek().time <= deadline:
            self._now, batch = events.pop_simultaneous()
            self._step(batch)
        self._now = deadline

    def drain(self, max_seconds: float = float("inf")) -> None:
        """Advance until queue and cluster are empty (or the cap is hit)."""
        rs = self._run
        t0 = self._now
        while (rs.running or rs.queue) and rs.events:
            next_time = rs.events.peek().time
            if next_time - t0 > max_seconds:
                break
            self.advance(next_time - self._now)
        if rs.queue and not rs.running:
            raise RuntimeError(
                f"{len(rs.queue)} pending jobs can never start "
                "(no running job will free nodes)"
            )

    # ------------------------------------------------------------------
    # internals (the engine's batch step, over this controller's run)
    # ------------------------------------------------------------------

    def _step(self, batch: Sequence[Event] = ()) -> None:
        self._engine._step(self._now, self._run, batch)

    def _record(self, record: JobRecord) -> None:
        self._history.append(record)
        self._done[record.job.job_id] = JobState.FAILED if record.failed else JobState.COMPLETED
