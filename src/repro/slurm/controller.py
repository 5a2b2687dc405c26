"""Interactive SLURM-style controller (``sbatch`` / ``squeue`` / ``sinfo``).

The batch engine (:mod:`repro.scheduler.engine`) replays a fixed job
log; this facade offers the *online* operating mode a SLURM user
expects: submit jobs as virtual time advances, inspect the queue and
per-switch occupancy, cancel jobs. It starts every job through the batch
engine's own :meth:`~repro.scheduler.engine.SchedulerEngine.start_job`
(allocation, Eq. 6 pricing against the counterfactual default
allocation, Eq. 7 runtime adjustment) and runs the same queue policy, so
its scheduling decisions are bit-identical to the batch engine's given
the same inputs — as long as no two jobs finish at the same instant,
which the engine releases in one batch and this controller one by one.

Availability management mirrors ``scontrol update nodename=... state=``:
:meth:`SlurmCluster.scontrol_down` fails nodes immediately (interrupting
their jobs per the configured policy), :meth:`SlurmCluster.scontrol_drain`
stops new work without killing running jobs, and
:meth:`SlurmCluster.scontrol_resume` returns nodes to service. ``sinfo``
reports per-switch DOWN/DRAIN counts alongside occupancy.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..allocation.base import Allocator
from ..cluster.job import CommComponent, Job, JobKind
from ..cluster.state import AVAIL_DOWN, AVAIL_DRAINING, ClusterState
from ..cost.model import CostModel
from ..faults.policy import InterruptionBook
from ..patterns.base import CommunicationPattern
from ..patterns.registry import get_pattern
from ..scheduler.engine import EngineConfig, SchedulerEngine, _Running
from ..scheduler.metrics import JobRecord
from ..scheduler.queue_policy import JobQueue, RunningJobView
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
    interruption policy and checkpoint interval), and every job starts
    through that engine's
    :meth:`~repro.scheduler.engine.SchedulerEngine.start_job`.

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
        self.state = ClusterState(topology)
        self._now = 0.0
        self._ids = itertools.count(1)
        self._pending = JobQueue()
        self._running: Dict[int, _Running] = {}
        self._finish_heap: List[Tuple[float, int]] = []
        self._history: List[JobRecord] = []
        self._states: Dict[int, str] = {}
        self._books: Dict[int, InterruptionBook] = {}

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
        job_id = next(self._ids)
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
        self._pending.append(job)
        self._states[job_id] = JobState.PENDING
        self._schedule_pass()
        return job_id

    def scancel(self, job_id: int) -> str:
        """Cancel a pending or running job; returns its previous state.

        A job id that was never submitted raises ``KeyError``; one that
        already reached a terminal state (COMPLETED / CANCELLED /
        FAILED) raises ``ValueError`` naming that state, matching real
        ``scancel``'s distinct "invalid job id" vs "job already done"
        diagnostics.
        """
        for i, job in enumerate(self._pending):
            if job.job_id == job_id:
                self._pending.take([i])
                self._states[job_id] = JobState.CANCELLED
                return JobState.PENDING
        entry = self._running.pop(job_id, None)
        if entry is not None:
            self.state.release(job_id)
            self._states[job_id] = JobState.CANCELLED
            self._schedule_pass()
            return JobState.RUNNING
        finished = self._states.get(job_id)
        if finished is not None:
            raise ValueError(f"job {job_id} is already {finished}")
        raise KeyError(f"unknown job {job_id}")

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
            for r in sorted(self._running.values(), key=lambda r: r.finish_time)
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
            for j in self._pending
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
        """PENDING / RUNNING / COMPLETED / CANCELLED."""
        try:
            return self._states[job_id]
        except KeyError:
            raise KeyError(f"unknown job {job_id}") from None

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
        arr = self._resolve_nodes(nodes)
        cfg = self._engine.config
        for job_id in self.state.jobs_on(arr):
            entry = self._running.pop(job_id)
            self.state.release(job_id)
            book = self._books.setdefault(job_id, InterruptionBook())
            requeued = book.interrupt(
                cfg.interrupt_policy,
                start_time=entry.start_time,
                now=self._now,
                duration=entry.finish_time - entry.start_time,
                nodes=entry.job.nodes,
                checkpoint_interval=cfg.checkpoint_interval,
            )
            if requeued:
                self._pending.append(entry.job)
                self._states[job_id] = JobState.PENDING
            else:
                self._states[job_id] = JobState.FAILED
                self._history.append(entry.record(book, finish_time=self._now, failed=True))
        transitioned = self.state.mark_down(arr)
        self._schedule_pass()
        return transitioned

    def scontrol_drain(self, nodes) -> np.ndarray:
        """Drain nodes: running jobs finish, nothing new lands on them."""
        return self.state.mark_drain(self._resolve_nodes(nodes))

    def scontrol_resume(self, nodes) -> np.ndarray:
        """Return DOWN/DRAINING nodes to service and reschedule."""
        transitioned = self.state.mark_up(self._resolve_nodes(nodes))
        self._schedule_pass()
        return transitioned

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Advance virtual time, processing completions along the way."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds} seconds")
        deadline = self._now + seconds
        while self._finish_heap and self._finish_heap[0][0] <= deadline:
            finish_time, job_id = heapq.heappop(self._finish_heap)
            entry = self._running.get(job_id)
            if entry is None or entry.finish_time != finish_time:
                continue  # cancelled or stale heap entry
            self._now = finish_time
            self._complete(entry)
            self._schedule_pass()
        self._now = deadline

    def drain(self, max_seconds: float = float("inf")) -> None:
        """Advance until queue and cluster are empty (or the cap is hit)."""
        t0 = self._now
        while (self._running or self._pending) and self._finish_heap:
            next_finish = self._finish_heap[0][0]
            if next_finish - t0 > max_seconds:
                break
            self.advance(next_finish - self._now)
        if self._pending and not self._running:
            raise RuntimeError(
                f"{len(self._pending)} pending jobs can never start "
                "(no running job will free nodes)"
            )

    # ------------------------------------------------------------------
    # internals (jobs start through SchedulerEngine.start_job)
    # ------------------------------------------------------------------

    def _complete(self, entry: _Running) -> None:
        job_id = entry.job.job_id
        self.state.release(job_id)
        del self._running[job_id]
        self._states[job_id] = JobState.COMPLETED
        self._history.append(entry.record(self._books.get(job_id)))

    def _schedule_pass(self) -> None:
        if not self._pending:
            return
        views = [
            RunningJobView(finish_estimate=r.finish_time, nodes=len(r.nodes))
            for r in self._running.values()
        ]
        picks = self._engine._policy.select_startable(
            self._now, self._pending, self.state.total_free, views
        )
        for job in self._pending.take(picks):
            self._start(job)

    def _start(self, job: Job) -> None:
        book = self._books.get(job.job_id)
        entry = self._engine.start_job(
            self._now, self.state, job, remaining=book.remaining if book else 1.0
        )
        self._running[job.job_id] = entry
        self._states[job.job_id] = JobState.RUNNING
        heapq.heappush(self._finish_heap, (entry.finish_time, job.job_id))
