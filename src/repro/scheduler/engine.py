"""Discrete-event scheduling simulator (the paper's emulated SLURM, §5).

The paper replays job logs through a modified SLURM in front-end
emulation mode: jobs occupy nodes for their logged durations, and a
communication-intensive job's duration is rescaled by Eq. 7 — the ratio
of its Eq. 6 communication cost under the job-aware allocation to the
cost under the allocation the *default* algorithm would have produced
from the same cluster state. This engine does exactly that, replacing
the 2-5 day wall-clock emulation with an event loop:

1. jobs arrive one at a time, in ``(submit_time, job_id)`` order, from
   one lookahead stream (a sorted job list or a caller's iterator);
   completions and faults wait on an event heap;
2. on every arrival or completion, a scheduling pass runs the queue
   policy (FIFO or EASY backfill) over the pending queue;
3. a started job gets nodes from the run's allocator; if it is
   communication-intensive, the default allocator is also run against
   the pre-allocation state and its hypothetical placement is priced on
   a per-leaf counter overlay (no state copy) to get the counterfactual,
   and the job's runtime is adjusted per Eq. 7;
4. completions free nodes and trigger the next pass.

Wait-time improvements in the paper are *emergent*: shorter adjusted
runtimes release nodes earlier, which this loop reproduces.

Fault injection (:mod:`repro.faults`) threads through the same loop:
``run(..., faults=...)`` queues NODE_DOWN / NODE_UP events alongside
the workload. A down event interrupts every running job holding an
affected node, applies the configured interruption policy (requeue /
checkpoint / abandon, see :mod:`repro.faults.policy`), marks the nodes
DOWN on the state, and lets the following scheduling pass route new
work around the hole. With no faults the loop is byte-for-byte the
pre-fault behaviour — fault handling only runs when fault events exist.

The engine itself is crash-safe: because every source of ordering is
deterministic (the event heap totally orders by (time, kind, seq) and
no RNG runs inside the loop), the full mid-run state can be serialized
(:meth:`SchedulerEngine.snapshot`, format v5 in
:mod:`repro.scheduler.serialize`) and a resumed run completes
bit-identically to an uninterrupted one. See ``docs/resilience.md``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..obs import runtime as obs_runtime
from ..obs.progress import ProgressReporter
from ..obs.runtime import PerfRecorder
from ..allocation.base import Allocator
from ..allocation.default_slurm import DefaultSlurmAllocator
from ..allocation.registry import get_allocator
from ..cluster.job import Job
from ..cluster.state import ClusterState
from ..cost.contention import ContentionModel
from ..cost.model import CostModel
from ..faults.events import FaultEvent
from ..faults.policy import InterruptionBook, require_policy
from ..topology.config import parse_topology_conf, write_topology_conf
from ..topology.tree import TreeTopology
from .events import Event, EventKind, EventQueue
from .metrics import JobRecord, SimulationResult
from ..runs.checkpoints import CheckpointStore
from .serialize import (
    SNAPSHOT_FORMAT_VERSION,
    SNAPSHOT_KIND,
    dump_snapshot,
    fault_from_dict,
    fault_to_dict,
    job_from_dict,
    job_to_dict,
    record_from_dict,
    record_to_dict,
)

from .queue_policy import JobQueue, QueuePolicy, RunningJobView, RunningViews, get_policy

__all__ = [
    "EngineConfig",
    "SchedulerEngine",
    "SchedulerStats",
    "SimulationInterrupted",
    "simulate",
]


class SimulationInterrupted(RuntimeError):
    """A run was stopped by its ``interrupt`` callback (e.g. SIGINT).

    ``checkpoint_path`` names the final checkpoint written before
    stopping, or ``None`` when checkpointing was not enabled.
    """

    def __init__(self, checkpoint_path: Optional[str] = None) -> None:
        suffix = (
            f"; checkpoint written to {checkpoint_path}"
            if checkpoint_path
            else " (no checkpoint configured)"
        )
        super().__init__(f"simulation interrupted{suffix}")
        self.checkpoint_path = checkpoint_path


@dataclass
class SchedulerStats:
    """Bookkeeping about one run's scheduling activity.

    Attributes
    ----------
    schedule_passes:
        Full queue-policy scans (the first pass of a run is always one).
    schedule_passes_incremental:
        Passes that evaluated only jobs appended since a failed full
        pass, against that pass's carried facts (see
        :mod:`repro.scheduler.queue_policy`).
    jobs_backfilled:
        Starts that jumped at least one earlier-submitted queued job.
    counterfactual_evaluations:
        Default-allocator counterfactual pricings performed (one per
        communication-intensive start under a non-default allocator).
    faults_injected:
        NODE_DOWN events processed.
    jobs_interrupted:
        Running jobs killed by a failure (counted per interruption, so
        one job can contribute several).
    jobs_requeued:
        Interruptions that put the job back on the queue (requeue or
        checkpoint policy).
    jobs_failed:
        Interruptions that abandoned the job (``abandon`` policy).
    """

    schedule_passes: int = 0
    schedule_passes_incremental: int = 0
    jobs_backfilled: int = 0
    counterfactual_evaluations: int = 0
    faults_injected: int = 0
    jobs_interrupted: int = 0
    jobs_requeued: int = 0
    jobs_failed: int = 0


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs.

    Attributes
    ----------
    policy:
        ``"backfill"`` (SLURM default, used in the paper) or ``"fifo"``.
    cost_model:
        Eq. 6 configuration shared by runtime adjustment and recording.
    adjust_runtimes:
        Apply Eq. 7. Disable for ablations where only the placement
        (not the modeled speedup) should differ between allocators.
    validate_state:
        Run :meth:`ClusterState.validate` after every mutation — O(nodes)
        per event, for tests and debugging only.
    interrupt_policy:
        What happens to a running job killed by a failure: ``"requeue"``
        (restart from scratch), ``"checkpoint"`` (restart from the last
        completed checkpoint), or ``"abandon"`` (job FAILED). See
        :mod:`repro.faults.policy`.
    checkpoint_interval:
        Wall seconds between checkpoints under the ``checkpoint``
        policy; ignored by the other policies.
    force_full_pass:
        Disable incremental scheduling: every pass is a from-scratch
        policy scan over rebuilt running-job views, never extended. The
        full-pass reference that ``verify_incremental`` and the
        incremental-equivalence tests compare against.
    verify_incremental:
        Self-checking mode: every extended pass is shadowed by a full
        reference scan and any divergence raises
        ``AssertionError``. O(full pass) per event — CI and debugging
        only.
    collect_perf:
        Install a :mod:`repro.obs` recorder around the run and attach
        its report as ``SimulationResult.perf``.
    validate_invariants:
        ``0`` (off) or N: run the :mod:`repro.validate` invariant
        checker — conservation, double-allocation, heap/running-set
        consistency, version monotonicity — every N event batches.
        Violations raise
        :class:`~repro.validate.InvariantViolation` and are counted
        as ``engine.invariant_violations`` in :mod:`repro.obs`.
        Cheaper than ``validate_state`` at N > 1 but covers more
        (engine-level invariants, not just the node arrays).
    """

    policy: str = "backfill"
    cost_model: CostModel = field(default_factory=CostModel)
    adjust_runtimes: bool = True
    validate_state: bool = False
    interrupt_policy: str = "requeue"
    checkpoint_interval: float = 3600.0
    force_full_pass: bool = False
    verify_incremental: bool = False
    collect_perf: bool = False
    validate_invariants: int = 0

    def __post_init__(self) -> None:
        require_policy(self.interrupt_policy)
        if self.checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be > 0, got {self.checkpoint_interval}"
            )
        if self.validate_invariants < 0:
            raise ValueError(
                f"validate_invariants must be >= 0, got {self.validate_invariants}"
            )


@dataclass
class _Running:
    job: Job
    start_time: float
    finish_time: float
    nodes: np.ndarray
    cost_jobaware: Dict[str, float]
    cost_default: Dict[str, float]

    def record(
        self,
        book: Optional[InterruptionBook],
        *,
        finish_time: Optional[float] = None,
        failed: bool = False,
    ) -> JobRecord:
        """This run's :class:`JobRecord`, ending at ``finish_time``.

        ``finish_time`` defaults to the scheduled finish; ``book`` holds
        the job's earlier interruptions (``None`` when it had none).
        """
        return JobRecord(
            job=self.job,
            start_time=self.start_time,
            finish_time=self.finish_time if finish_time is None else finish_time,
            nodes=self.nodes,
            cost_jobaware=self.cost_jobaware,
            cost_default=self.cost_default,
            requeues=book.requeues if book else 0,
            wasted_node_seconds=book.wasted_node_seconds if book else 0.0,
            failed=failed,
        )


class _JobStream:
    """The run's arrival source, with one job of lookahead.

    Wraps a job iterator and exposes the engine's view of it: the next
    pending arrival (:attr:`head`), how many jobs have been handed to
    the run so far (:attr:`consumed`), and per-job validation as jobs
    cross the boundary. Jobs must arrive in non-decreasing submit order
    (the clock cannot run backwards); within one instant they enter the
    queue in stream order.

    ``run(jobs=...)`` streams its ``(submit_time, job_id)``-sorted list
    and passes it as ``owned``, so :meth:`pending` can list the arrivals
    still to come — a checkpoint stores them. A caller's iterator
    (``run(stream=...)``) is not owned: its checkpoint stores only
    :attr:`consumed`, and since the trace is never held in memory there
    is no whole-trace duplicate-id scan; duplicate ids surface when the
    second copy reaches the cluster state.
    """

    __slots__ = ("_it", "_n_nodes", "_head", "_last_time", "consumed", "owned")

    def __init__(
        self, jobs: Iterable[Job], n_nodes: int, owned: Optional[List[Job]] = None
    ) -> None:
        self._it = iter(jobs)
        self._n_nodes = n_nodes
        self._head: Optional[Job] = None
        self._last_time = 0.0
        self.consumed = 0
        self.owned = owned
        self._advance()

    def _advance(self) -> None:
        try:
            job = next(self._it)
        except StopIteration:
            self._head = None
            return
        if job.nodes > self._n_nodes:
            raise ValueError(
                f"job {job.job_id} requests {job.nodes} nodes; the "
                f"cluster has {self._n_nodes} — it would block "
                "the queue forever"
            )
        if job.submit_time < self._last_time:
            raise ValueError(
                f"streaming jobs must arrive in non-decreasing submit "
                f"order; job {job.job_id} at t={job.submit_time} follows "
                f"t={self._last_time}"
            )
        self._last_time = job.submit_time
        self._head = job

    @property
    def head(self) -> Optional[Job]:
        """The next pending arrival, or ``None`` when exhausted."""
        return self._head

    @property
    def exhausted(self) -> bool:
        """True once the underlying iterator has no more jobs."""
        return self._head is None

    def take(self) -> Job:
        """Hand the head job to the run and advance the lookahead."""
        job = self._head
        assert job is not None
        self.consumed += 1
        self._advance()
        return job

    def skip(self, n: int) -> None:
        """Fast-forward past ``n`` already-consumed jobs (checkpoint resume)."""
        for _ in range(n):
            if self._head is None:
                raise ValueError(
                    f"stream ended after {self.consumed} job(s); the "
                    f"checkpoint had consumed {n} — resume needs the "
                    "same replayable stream the original run used"
                )
            self.take()

    def pending(self) -> List[Job]:
        """The owned jobs not yet handed to the run, the lookahead included."""
        assert self.owned is not None
        return self.owned[self.consumed:]


@dataclass
class _RunState:
    """Everything one in-progress :meth:`SchedulerEngine.run` owns.

    Extracted from the run loop's former local variables so a run can
    be paused, snapshotted, and resumed; the online
    :class:`~repro.slurm.SlurmCluster` holds one with an empty stream
    and steps it with :meth:`SchedulerEngine._step`. ``batches_done``
    counts the simultaneous-event batches processed — the unit
    ``checkpoint_every`` and ``stop_after`` are measured in. ``stream``
    is the run's one arrival source; the heap in ``events`` holds only
    FINISH and fault events.

    The incremental-scheduling fields never enter a checkpoint: they
    are a pure optimization whose absence only costs one full pass
    after resume (``clean_version=None`` means "dirty"), keeping the
    snapshot format stable. A state version equal to ``clean_version``
    proves nothing started, finished or faulted since a pass that
    picked nothing, so the next pass only has to evaluate the jobs
    appended since, against ``carry``.
    """

    state: ClusterState
    events: EventQueue
    queue: JobQueue
    running: Dict[int, _Running]
    records: List[JobRecord]
    books: Dict[int, InterruptionBook]
    stream: _JobStream
    batches_done: int = 0
    views: RunningViews = field(default_factory=RunningViews)
    clean_version: Optional[int] = None
    carry: Any = None
    #: The engine-owned perf recorder when ``collect_perf`` is on and no
    #: ambient recorder was installed. Lives on the run state (not the
    #: engine) so checkpoints carry it and a resumed ``--perf`` run
    #: reports whole-run counters, not just the post-resume tail.
    #: Ambient recorders (installed by callers via ``obs_runtime.collecting``)
    #: are never checkpointed: they may hold counts from outside this
    #: run, and keeping them out preserves byte-stable checkpoints for
    #: untraced runs.
    perf: Optional[PerfRecorder] = None
    #: Where completed :class:`JobRecord` objects go. ``None`` appends
    #: to :attr:`records` (the classic O(jobs) result); a callable makes
    #: the run constant-memory — records are handed over as they finish
    #: and ``SimulationResult.records`` stays empty.
    record_sink: Optional[Callable[[JobRecord], None]] = None
    #: Records emitted so far (== ``len(records)`` without a sink);
    #: feeds the progress reporter in sink mode.
    records_emitted: int = 0


class SchedulerEngine:
    """One reusable (topology, allocator, config) simulation harness."""

    def __init__(
        self,
        topology: TreeTopology,
        allocator: Union[str, Allocator],
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.topology = topology
        self.allocator = get_allocator(allocator) if isinstance(allocator, str) else allocator
        self.config = config or EngineConfig()
        self._policy: QueuePolicy = get_policy(self.config.policy)
        self._default = DefaultSlurmAllocator()
        #: statistics of the most recent :meth:`run` (reset per run)
        self.last_stats = SchedulerStats()
        #: the paused/in-progress run, when one exists
        self._run_state: Optional[_RunState] = None

    # ------------------------------------------------------------------

    def run(
        self,
        jobs: Optional[Iterable[Job]] = None,
        initial_state: Optional[ClusterState] = None,
        faults: Optional[Sequence[FaultEvent]] = None,
        *,
        stream: Optional[Iterable[Job]] = None,
        record_sink: Optional[Callable[[JobRecord], None]] = None,
        resume_from: Optional[Dict[str, Any]] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[Union[str, "os.PathLike", CheckpointStore]] = None,
        stop_after: Optional[int] = None,
        interrupt: Optional[Callable[[], bool]] = None,
        progress: Optional["ProgressReporter"] = None,
    ) -> Optional[SimulationResult]:
        """Simulate ``jobs`` to completion and return all records.

        ``initial_state`` lets callers start from a partially occupied
        cluster (the paper's *individual runs*, §5.4); pre-existing jobs
        in it are never released — they model long-running background
        load. The input state is copied, not mutated.

        ``faults`` injects NODE_DOWN / NODE_UP transitions (from
        :func:`repro.faults.generate_faults` or a replayed trace). A
        down event interrupts every running job holding an affected
        node per ``config.interrupt_policy``, then marks the nodes DOWN
        so subsequent allocations route around them. Jobs that can no
        longer fit by the time all events drain are returned in
        ``SimulationResult.unstarted``. Passing ``faults=None`` or an
        empty sequence reproduces the fault-free schedule exactly.

        Crash safety (see ``docs/resilience.md``):

        * ``checkpoint_path`` + ``checkpoint_every=N`` atomically write
          an engine checkpoint (:meth:`snapshot`) every N event batches;
        * ``resume_from`` (a checkpoint dict from
          :func:`~repro.scheduler.serialize.load_snapshot`) continues a
          checkpointed run — ``jobs``/``initial_state``/``faults`` must
          then be omitted, and the completed run is **bit-identical** to
          an uninterrupted one;
        * ``stop_after=N`` pauses the run after N event batches (writing
          a final checkpoint when ``checkpoint_path`` is set) and
          returns ``None``; the paused state stays on the engine for
          :meth:`snapshot`;
        * ``interrupt`` is polled once per batch; when it returns True
          the run writes a final checkpoint (if configured) and raises
          :class:`SimulationInterrupted`.

        Arrivals: ``jobs`` is checked whole (duplicate ids, including
        ``initial_state``'s jobs, and oversize jobs), sorted by
        ``(submit_time, job_id)`` and then streamed like ``stream`` —
        the run has one arrival path.

        Streaming mode (constant memory in trace length):

        * ``stream`` replaces ``jobs`` with a lazy iterator consumed one
          arrival at a time. Jobs must arrive in non-decreasing
          ``submit_time`` order, ties pre-sorted by ``job_id`` if the
          ``jobs`` tie-break order is wanted; the schedule is then
          **bit-identical** to ``run(jobs=list(stream))``. There is no
          whole-trace duplicate-id scan in this mode.
        * ``record_sink`` (works with either input form) receives each
          completed :class:`JobRecord` instead of accumulating it in
          ``SimulationResult.records``, making the result O(1) in jobs.
        * Checkpoints of a streaming run store only the *count* of
          arrivals consumed (a ``jobs`` run's store the pending
          arrivals themselves); ``run(resume_from=ckpt, stream=...)`` must
          be given the same replayable stream (e.g. the same
          :func:`~repro.workloads.stream_trace` call), which is
          fast-forwarded past the consumed prefix. ``record_sink`` is
          likewise not checkpointed — pass it again on resume; records
          emitted after the checkpoint was taken are re-emitted by the
          resumed run (sinks must be idempotent or resume-aware).

        ``progress`` installs a
        :class:`~repro.obs.progress.ProgressReporter` for the duration
        of the run: the loop feeds it one update per event batch
        (events processed, jobs finished, simulation clock). Purely
        diagnostic — results are identical with or without it.
        """
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError(f"checkpoint_every must be > 0, got {checkpoint_every}")
        if checkpoint_every is not None and checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        if stop_after is not None and stop_after <= 0:
            raise ValueError(f"stop_after must be > 0, got {stop_after}")
        if jobs is not None and stream is not None:
            raise ValueError("pass jobs or stream, not both")

        if resume_from is not None:
            if jobs is not None or initial_state is not None or faults is not None:
                raise ValueError(
                    "resume_from replaces jobs/initial_state/faults — "
                    "they all live inside the checkpoint"
                )
            stream_meta = resume_from.get("stream")
            if stream_meta is not None and stream is None:
                raise ValueError(
                    "this checkpoint belongs to a streaming run — pass "
                    "stream= with the same replayable trace the original "
                    "run used"
                )
            if stream_meta is None and stream is not None:
                raise ValueError(
                    "stream= given but the checkpoint is not from a "
                    "streaming run"
                )
            rs = self._restore_run_state(resume_from, stream)
        elif stream is not None:
            rs = self._begin_run(
                _JobStream(stream, self.topology.n_nodes), initial_state, faults
            )
        else:
            if jobs is None:
                raise ValueError("run() needs jobs, stream, or resume_from=...")
            job_list = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
            if not job_list:
                return SimulationResult(self.allocator.name, [])
            seen_ids = set(() if initial_state is None else initial_state.running)
            for job in job_list:
                if job.nodes > self.topology.n_nodes:
                    raise ValueError(
                        f"job {job.job_id} requests {job.nodes} nodes; the "
                        f"cluster has {self.topology.n_nodes} — it would block "
                        "the queue forever"
                    )
                if job.job_id in seen_ids:
                    raise ValueError(f"duplicate job id {job.job_id}")
                seen_ids.add(job.job_id)
            rs = self._begin_run(
                _JobStream(job_list, self.topology.n_nodes, owned=job_list),
                initial_state,
                faults,
            )
        rs.record_sink = record_sink

        if progress is not None:
            with obs_runtime.progressing(progress):
                return self._run_measured(
                    rs, checkpoint_every, checkpoint_path, stop_after, interrupt
                )
        return self._run_measured(
            rs, checkpoint_every, checkpoint_path, stop_after, interrupt
        )

    def _run_measured(
        self,
        rs: _RunState,
        checkpoint_every: Optional[int],
        checkpoint_path: Optional[Union[str, "os.PathLike", CheckpointStore]],
        stop_after: Optional[int],
        interrupt: Optional[Callable[[], bool]],
    ) -> Optional[SimulationResult]:
        """Drive the loop under the engine-owned perf recorder, if any.

        When ``collect_perf`` is set and no ambient recorder is
        installed, the run's recorder lives on the run state — reused
        across pause/resume within this process and carried through
        checkpoints (see :class:`_RunState`) — so the report attached
        to ``SimulationResult.perf`` always covers the whole run.
        """
        if self.config.collect_perf and obs_runtime.active() is None:
            recorder = rs.perf if rs.perf is not None else PerfRecorder()
            rs.perf = recorder
            with obs_runtime.collecting(recorder):
                result = self._drive(
                    rs, checkpoint_every, checkpoint_path, stop_after, interrupt
                )
            if result is not None:
                result.perf = recorder.snapshot()
            return result
        return self._drive(rs, checkpoint_every, checkpoint_path, stop_after, interrupt)

    def _begin_run(
        self,
        stream: _JobStream,
        initial_state: Optional[ClusterState],
        faults: Optional[Sequence[FaultEvent]],
    ) -> _RunState:
        state = initial_state.copy() if initial_state is not None else ClusterState(self.topology)
        self.last_stats = SchedulerStats()
        events = EventQueue()
        for fault in faults or ():
            for node in fault.nodes:
                if not 0 <= node < self.topology.n_nodes:
                    raise ValueError(
                        f"fault at t={fault.time} names node {node}; the "
                        f"cluster has {self.topology.n_nodes} nodes"
                    )
            events.push(
                fault.time,
                EventKind.NODE_DOWN if fault.is_down else EventKind.NODE_UP,
                fault,
            )
        return _RunState(
            state=state,
            events=events,
            queue=JobQueue(),
            running={},
            records=[],
            books={},
            stream=stream,
        )

    def _drive(
        self,
        rs: _RunState,
        checkpoint_every: Optional[int],
        checkpoint_path: Optional[Union[str, "os.PathLike", CheckpointStore]],
        stop_after: Optional[int],
        interrupt: Optional[Callable[[], bool]],
    ) -> Optional[SimulationResult]:
        self._run_state = rs
        queue, running, records = rs.queue, rs.running, rs.records
        checker = None
        if self.config.validate_invariants > 0:
            # Imported here: repro.validate reads engine internals via
            # duck typing and must stay importable without the engine.
            from ..validate import InvariantChecker

            checker = InvariantChecker()
        events = rs.events
        stream = rs.stream
        while events or not stream.exhausted:
            if interrupt is not None and interrupt():
                if checkpoint_path is not None:
                    self._write_checkpoint(checkpoint_path)
                raise SimulationInterrupted(
                    str(checkpoint_path) if checkpoint_path is not None else None
                )
            # The clock ticks to whichever comes first: the earliest heap
            # event or the stream's next arrival. A pure-arrival tick has
            # an empty heap batch; arrivals at a heap-event instant join
            # that batch *after* its events, so they see the nodes its
            # finishes freed and its faults took.
            head = stream.head
            if head is not None and (not events or head.submit_time < events.peek().time):
                now, batch = head.submit_time, []
            else:
                now, batch = events.pop_simultaneous()
            n_events = self._step(now, rs, batch)
            rs.batches_done += 1
            if (
                checker is not None
                and rs.batches_done % self.config.validate_invariants == 0
            ):
                checker.check_engine(self, rs)
            reporter = obs_runtime.progress()
            if reporter is not None:
                reporter.engine_batch(now, n_events, rs.records_emitted)
            if stream.exhausted and (not events or (not queue and not running)):
                break  # done, or only fault events (or stale finishes) remain
            if (
                checkpoint_every is not None
                and rs.batches_done % checkpoint_every == 0
            ):
                self._write_checkpoint(checkpoint_path)
            if stop_after is not None and rs.batches_done >= stop_after:
                if checkpoint_path is not None:
                    self._write_checkpoint(checkpoint_path)
                return None  # paused; self._run_state holds the frozen run

        result = SimulationResult(self.allocator.name, records, unstarted=list(queue))
        self._run_state = None
        return result

    def _step(self, now: float, rs: _RunState, batch: Sequence[Event]) -> int:
        """Process one batch of simultaneous heap events at ``now``.

        Releases the batch's finishes, applies its faults, admits the
        stream's arrivals at ``now``, then runs one scheduling pass.
        Returns the number of events and arrivals processed. The batch
        loop and :class:`~repro.slurm.SlurmCluster` both step here.
        """
        state, running = rs.state, rs.running
        # FINISH events form a prefix of the batch (lowest kind
        # priority); releasing all of them in one vectorized pass
        # costs one counter update + one cache invalidation instead
        # of one per job. The sets are disjoint and nothing reads
        # the state between the releases, so the result is
        # bit-identical to sequential release.
        n_finish = 0
        finals: List[_Running] = []
        for event in batch:
            if event.kind is not EventKind.FINISH:
                break
            n_finish += 1
            finished: _Running = event.payload
            if running.get(finished.job.job_id) is not finished:
                continue  # stale: this run was interrupted or cancelled
            finals.append(finished)
        if finals:
            if len(finals) == 1:
                state.release(finals[0].job.job_id)
            else:
                state.release_many([f.job.job_id for f in finals])
            for finished in finals:
                del running[finished.job.job_id]
                rs.views.remove(finished.job.job_id)
                obs_runtime.count("engine.jobs_finished")
                self._emit_record(rs, finished.record(rs.books.get(finished.job.job_id)))
        for event in batch[n_finish:]:
            nodes = np.asarray(event.payload.nodes, dtype=np.int64)
            if event.kind is EventKind.NODE_DOWN:
                self._apply_fault_down(now, rs, nodes)
            else:
                state.mark_up(nodes)
        stream, queue = rs.stream, rs.queue
        arrivals = 0
        while not stream.exhausted and stream.head.submit_time <= now:
            queue.append(stream.take())
            arrivals += 1
        obs_runtime.count("engine.events", len(batch) + arrivals)
        obs_runtime.count("engine.batches")
        self._schedule_pass(now, rs)
        if self.config.validate_state:
            state.validate()
        return len(batch) + arrivals

    @staticmethod
    def _emit_record(rs: _RunState, record: JobRecord) -> None:
        """Hand a completed record to the sink, or keep it in memory."""
        if rs.record_sink is not None:
            rs.record_sink(record)
        else:
            rs.records.append(record)
        rs.records_emitted += 1

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serialize the paused/in-progress run as a checkpoint dict.

        The snapshot captures the *entire* simulation state — pending
        event heap of FINISH and fault events (in internal heap-array
        order, with the sequence counter), arrivals still to come,
        queue, running set, per-job interruption books, completed
        records, cluster node arrays, engine stats — plus the
        engine configuration and topology, so
        :meth:`from_snapshot` + ``run(resume_from=...)`` continues the
        run **bit-identically** to one that was never stopped.

        ``_Running`` entries are stored once in a reference table and
        pointed at by index: the engine detects stale FINISH events (a
        job interrupted by a fault and restarted) by object *identity*,
        so the heap's payload references and the running dict must
        resolve to the same objects after restore.
        """
        rs = self._run_state
        if rs is None:
            raise RuntimeError(
                "no run in progress — snapshot() only works on a run "
                "paused with stop_after or polled via checkpoint_every"
            )
        cfg = self.config
        entry_refs: Dict[int, int] = {}
        entries: List[Dict[str, Any]] = []

        def ref(entry: _Running) -> int:
            key = id(entry)
            idx = entry_refs.get(key)
            if idx is None:
                idx = len(entries)
                entry_refs[key] = idx
                entries.append(
                    {
                        "job": job_to_dict(entry.job),
                        "start_time": entry.start_time,
                        "finish_time": entry.finish_time,
                        "nodes": entry.nodes.tolist(),
                        "cost_jobaware": dict(entry.cost_jobaware),
                        "cost_default": dict(entry.cost_default),
                    }
                )
            return idx

        running_refs = [[job_id, ref(entry)] for job_id, entry in rs.running.items()]
        heap: List[Dict[str, Any]] = []
        for event in rs.events.snapshot_entries():
            if event.kind is EventKind.FINISH:
                payload: Dict[str, Any] = {"type": "finish", "ref": ref(event.payload)}
            else:
                payload = {"type": "fault", "fault": fault_to_dict(event.payload)}
            heap.append(
                {
                    "time": event.time,
                    "kind": int(event.kind),
                    "seq": event.seq,
                    "payload": payload,
                }
            )

        data: Dict[str, Any] = {
            "kind": SNAPSHOT_KIND,
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "engine": {
                "allocator": self.allocator.name,
                "policy": cfg.policy,
                "adjust_runtimes": cfg.adjust_runtimes,
                "validate_state": cfg.validate_state,
                "interrupt_policy": cfg.interrupt_policy,
                "checkpoint_interval": cfg.checkpoint_interval,
                "force_full_pass": cfg.force_full_pass,
                "verify_incremental": cfg.verify_incremental,
                "collect_perf": cfg.collect_perf,
                "validate_invariants": cfg.validate_invariants,
                "cost_model": {
                    "weight_by_msize": cfg.cost_model.weight_by_msize,
                    "contention": {
                        "uplink_discount": cfg.cost_model.contention.uplink_discount,
                        "per_level": cfg.cost_model.contention.per_level,
                    },
                },
            },
            "topology_conf": write_topology_conf(self.topology),
            "heap": heap,
            "next_seq": rs.events.next_seq,
            "running_entries": entries,
            "running_refs": running_refs,
            "queue": [job_to_dict(j) for j in rs.queue],
            "records": [record_to_dict(r) for r in rs.records],
            "books": [[job_id, asdict(book)] for job_id, book in rs.books.items()],
            "batches_done": rs.batches_done,
            "stats": asdict(self.last_stats),
            "state": rs.state.snapshot_dict(),
            # Reserved: the engine is RNG-free today; a future stochastic
            # extension must checkpoint its generator state here.
            "rng": None,
        }
        # The engine-owned perf recorder rides along so a resumed --perf
        # run reports whole-run counters. Key absent (not null) when perf
        # is off, keeping untraced checkpoints byte-identical to PR 3's.
        if rs.perf is not None:
            data["perf"] = rs.perf.state_dict()
        # A jobs= run stores the arrivals still to come. A streaming run
        # stores only the resume cursor — the trace itself is regenerated
        # by the replayable stream on resume (the head-of-stream
        # lookahead job is *not* consumed).
        if rs.stream.owned is not None:
            data["arrivals"] = [job_to_dict(j) for j in rs.stream.pending()]
        else:
            data["stream"] = {"consumed": rs.stream.consumed}
        return data

    def _write_checkpoint(
        self, path: Union[str, "os.PathLike", CheckpointStore]
    ) -> None:
        obs_runtime.count("engine.checkpoints_written")
        with obs_runtime.timer("engine.checkpoint_write"):
            if isinstance(path, CheckpointStore):
                path.write(self.snapshot())
            else:
                dump_snapshot(self.snapshot(), path)

    def _restore_run_state(
        self, data: Dict[str, Any], stream: Optional[Iterable[Job]]
    ) -> _RunState:
        """Rebuild a :class:`_RunState` from a checkpoint dict.

        ``stream`` is the replayable trace of a streaming checkpoint.
        Format v3/v4 checkpoints kept a ``jobs`` run's pending arrivals
        on the heap as SUBMIT events, pushed in ``(submit_time, job_id)``
        order; they become the arrival list, in ``(time, seq)`` order.
        """
        if data.get("kind") != SNAPSHOT_KIND:
            raise ValueError(f"not an engine checkpoint: kind={data.get('kind')!r}")
        meta = data["engine"]
        if meta["allocator"] != self.allocator.name:
            raise ValueError(
                f"checkpoint was taken under allocator {meta['allocator']!r}; "
                f"this engine uses {self.allocator.name!r}"
            )
        if meta["policy"] != self.config.policy:
            raise ValueError(
                f"checkpoint was taken under policy {meta['policy']!r}; "
                f"this engine uses {self.config.policy!r}"
            )
        ckpt_topology = parse_topology_conf(data["topology_conf"])
        if ckpt_topology.n_nodes != self.topology.n_nodes:
            raise ValueError(
                f"checkpoint topology has {ckpt_topology.n_nodes} nodes; "
                f"this engine's has {self.topology.n_nodes}"
            )

        entries = [
            _Running(
                job=job_from_dict(e["job"]),
                start_time=float(e["start_time"]),
                finish_time=float(e["finish_time"]),
                nodes=np.asarray(e["nodes"], dtype=np.int64),
                cost_jobaware={k: float(v) for k, v in e["cost_jobaware"].items()},
                cost_default={k: float(v) for k, v in e["cost_default"].items()},
            )
            for e in data["running_entries"]
        ]
        heap_events: List[Event] = []
        submits: List[Any] = []
        for ev in data["heap"]:
            payload_data = ev["payload"]
            ptype = payload_data["type"]
            if ptype == "finish":
                payload: Any = entries[payload_data["ref"]]
            elif ptype == "submit":
                submits.append((float(ev["time"]), int(ev["seq"]), payload_data["job"]))
                continue
            elif ptype == "fault":
                payload = fault_from_dict(payload_data["fault"])
            else:
                raise ValueError(f"unknown checkpoint event payload type {ptype!r}")
            heap_events.append(
                Event(
                    time=float(ev["time"]),
                    kind=EventKind(ev["kind"]),
                    seq=int(ev["seq"]),
                    payload=payload,
                )
            )
        events = EventQueue.restore(heap_events, int(data["next_seq"]))
        running = {int(job_id): entries[idx] for job_id, idx in data["running_refs"]}
        books = {
            int(job_id): InterruptionBook(**book) for job_id, book in data["books"]
        }
        stats = {k: v for k, v in data["stats"].items() if k != "schedule_passes_skipped"}
        self.last_stats = SchedulerStats(**stats)
        if "stream" in data:
            assert stream is not None
            arrivals = _JobStream(stream, self.topology.n_nodes)
            arrivals.skip(int(data["stream"]["consumed"]))
        else:
            stored = data["arrivals"] if "arrivals" in data else [
                job for _, _, job in sorted(submits)
            ]
            pending = [job_from_dict(j) for j in stored]
            arrivals = _JobStream(pending, self.topology.n_nodes, owned=pending)
        rs = _RunState(
            state=ClusterState.from_snapshot_dict(self.topology, data["state"]),
            events=events,
            queue=JobQueue(job_from_dict(j) for j in data["queue"]),
            running=running,
            records=[record_from_dict(r) for r in data["records"]],
            books=books,
            stream=arrivals,
            batches_done=int(data["batches_done"]),
        )
        # Rebuild the finish-ordered views in the stored start order; the
        # incremental carry is deliberately not checkpointed, so a resumed
        # run starts "dirty" and re-proves cleanliness with one full pass.
        for job_id, entry in running.items():
            rs.views.add(job_id, entry.finish_time, len(entry.nodes))
        # Carry the checkpointed perf counters forward (key absent on
        # checkpoints taken without --perf, including all pre-obs ones).
        perf_state = data.get("perf")
        if perf_state is not None:
            rs.perf = PerfRecorder.from_state(perf_state)
        rs.records_emitted = len(rs.records)
        return rs

    @classmethod
    def from_snapshot(
        cls,
        data: Dict[str, Any],
        *,
        topology: Optional[TreeTopology] = None,
        allocator: Optional[Union[str, Allocator]] = None,
        config: Optional[EngineConfig] = None,
    ) -> "SchedulerEngine":
        """Build an engine whose configuration matches a checkpoint.

        By default everything — topology, allocator, engine config —
        is reconstructed from the checkpoint itself, so
        ``SchedulerEngine.from_snapshot(ckpt).run(resume_from=ckpt)``
        is all a resume takes. Each piece can be overridden (e.g. to
        reuse an already-parsed topology object).
        """
        if data.get("kind") != SNAPSHOT_KIND:
            raise ValueError(f"not an engine checkpoint: kind={data.get('kind')!r}")
        meta = data["engine"]
        if topology is None:
            topology = parse_topology_conf(data["topology_conf"])
        if allocator is None:
            allocator = meta["allocator"]
        if config is None:
            cm = meta["cost_model"]
            config = EngineConfig(
                policy=meta["policy"],
                cost_model=CostModel(
                    weight_by_msize=bool(cm["weight_by_msize"]),
                    contention=ContentionModel(
                        uplink_discount=float(cm["contention"]["uplink_discount"]),
                        per_level=bool(cm["contention"]["per_level"]),
                    ),
                ),
                adjust_runtimes=bool(meta["adjust_runtimes"]),
                validate_state=bool(meta["validate_state"]),
                interrupt_policy=meta["interrupt_policy"],
                checkpoint_interval=float(meta["checkpoint_interval"]),
                # absent in pre-PR-4 (still format v3) checkpoints
                force_full_pass=bool(meta.get("force_full_pass", False)),
                verify_incremental=bool(meta.get("verify_incremental", False)),
                collect_perf=bool(meta.get("collect_perf", False)),
                # absent in pre-chaos (v3-footer-less) checkpoints
                validate_invariants=int(meta.get("validate_invariants", 0)),
            )
        return cls(topology, allocator, config)

    def _apply_fault_down(self, now: float, rs: _RunState, nodes: np.ndarray) -> np.ndarray:
        """Interrupt jobs touching the failed nodes, then mark them DOWN.

        Returns the node ids newly marked DOWN.
        """
        cfg = self.config
        state, queue, running, books = (
            rs.state,
            rs.queue,
            rs.running,
            rs.books,
        )
        self.last_stats.faults_injected += 1
        obs_runtime.count("engine.faults_injected")
        for job_id in state.jobs_on(nodes):
            entry = running.pop(job_id, None)
            if entry is None:
                raise RuntimeError(
                    f"node {nodes.tolist()} occupied by job {job_id} not tracked as "
                    "running — faults cannot interrupt initial_state background jobs"
                )
            state.release(job_id)
            rs.views.remove(job_id)
            book = books.setdefault(job_id, InterruptionBook())
            self.last_stats.jobs_interrupted += 1
            obs_runtime.count("engine.jobs_interrupted")
            requeued = book.interrupt(
                cfg.interrupt_policy,
                start_time=entry.start_time,
                now=now,
                duration=entry.finish_time - entry.start_time,
                nodes=entry.job.nodes,
                checkpoint_interval=cfg.checkpoint_interval,
            )
            if requeued:
                self.last_stats.jobs_requeued += 1
                obs_runtime.count("engine.jobs_requeued")
                queue.append(entry.job)
            else:
                self.last_stats.jobs_failed += 1
                obs_runtime.count("engine.jobs_failed")
                self._emit_record(rs, entry.record(book, finish_time=now, failed=True))
        return state.mark_down(nodes)

    # ------------------------------------------------------------------

    def _schedule_pass(self, now: float, rs: _RunState) -> None:
        queue = rs.queue
        if not queue:
            return
        state = rs.state
        cfg = self.config
        policy = self._policy
        incremental_ok = not cfg.force_full_pass and getattr(
            policy, "incremental_ok", False
        )

        if incremental_ok and rs.clean_version == state.version:
            # No job started/finished/faulted since a pass that picked
            # nothing: the carried facts evaluate just the jobs appended
            # since (none, when only the clock moved).
            self.last_stats.schedule_passes_incremental += 1
            obs_runtime.count("engine.passes_incremental")
            with obs_runtime.timer("engine.schedule_pass"):
                picks, carry = policy.extend_pass(now, queue, rs.views, rs.carry)
            if cfg.verify_incremental:
                self._verify_picks(now, rs, picks)
            if not picks:
                rs.carry = carry
                return
            self._mark_dirty(rs)
            self._apply_picks(now, rs, picks)
            return

        self.last_stats.schedule_passes += 1
        obs_runtime.count("engine.passes_full")
        free = state.total_free
        if incremental_ok:
            with obs_runtime.timer("engine.schedule_pass"):
                picks, carry = policy.begin_pass(now, queue, free, rs.views)
            if not picks:
                rs.carry = carry
                rs.clean_version = state.version
                return
            self._mark_dirty(rs)
        else:
            # Reference path (force_full_pass or a policy without the
            # incremental protocol): rebuild plain views every pass and
            # never extend.
            views = [
                RunningJobView(finish_estimate=r.finish_time, nodes=len(r.nodes))
                for r in rs.running.values()
            ]
            with obs_runtime.timer("engine.schedule_pass"):
                picks = policy.select_startable(now, queue, free, views)
            if not picks:
                return
        self._apply_picks(now, rs, picks)

    @staticmethod
    def _mark_dirty(rs: _RunState) -> None:
        rs.carry = None
        rs.clean_version = None

    def _reference_picks(self, rs: _RunState, now: float) -> List[int]:
        views = [
            RunningJobView(finish_estimate=r.finish_time, nodes=len(r.nodes))
            for r in rs.running.values()
        ]
        # a plain list: the reference walks every job, with no array prefilter
        return self._policy.select_startable(
            now, list(rs.queue), rs.state.total_free, views
        )

    def _verify_picks(self, now: float, rs: _RunState, picks: List[int]) -> None:
        reference = self._reference_picks(rs, now)
        if reference != picks:
            raise AssertionError(
                f"incremental-pass invariant violated: extended pass at t={now} "
                f"picks {picks} but a full reference pass picks {reference}"
            )

    def _apply_picks(self, now: float, rs: _RunState, picks: List[int]) -> None:
        queue = rs.queue
        # A pick is a backfill when any earlier-queued job was left
        # behind, i.e. its index exceeds its position among the
        # (ascending) picked indices.
        for pos, idx in enumerate(sorted(picks)):
            if idx != pos:
                self.last_stats.jobs_backfilled += 1
        # Start in policy order, after the queue has dropped every pick
        # (the policy's indices refer to the queue before any removal).
        for job in queue.take(picks):
            book = rs.books.get(job.job_id)
            entry = self.start_job(
                now, rs.state, job, remaining=book.remaining if book else 1.0
            )
            rs.running[job.job_id] = entry
            rs.views.add(job.job_id, entry.finish_time, len(entry.nodes))
            rs.events.push(entry.finish_time, EventKind.FINISH, entry)

    def start_job(
        self, now: float, state: ClusterState, job: Job, remaining: float = 1.0
    ) -> _Running:
        """Allocate, price and Eq.-7-adjust ``job``; return its running entry.

        Both allocators return :class:`~repro.cluster.state.Takes`, and
        both placements are priced from their takes; ``state.allocate``
        then builds the chosen placement's node ids, once. The caller
        tracks the returned entry and schedules its completion at
        ``finish_time``.
        ``remaining`` scales the scheduled wall duration for
        checkpoint-resumed jobs (fraction of total work left, from
        :class:`~repro.faults.policy.InterruptionBook`). The batch loop
        and :class:`~repro.slurm.SlurmCluster` both start jobs here.
        """
        cfg = self.config
        obs_runtime.count("engine.jobs_started")
        needs_counterfactual = (
            job.is_comm_intensive and self.allocator.name != self._default.name
        )
        # Both allocators read the same pre-allocation state (neither
        # mutates it); the counterfactual is captured as a cheap per-leaf
        # overlay instead of an O(n_nodes) state copy.
        with obs_runtime.timer("engine.allocator"):
            default_takes = (
                self._default.allocate(state, job) if needs_counterfactual else None
            )
            takes = self.allocator.allocate(state, job)
        with obs_runtime.timer("engine.counterfactual"):
            default_view = (
                state.comm_overlay(default_takes, job.kind)
                if needs_counterfactual
                else None
            )
        aware: Dict = {}
        if job.is_comm_intensive:
            # Price the chosen allocation on a pre-allocation overlay:
            # its per-leaf counters equal the post-allocation state's,
            # so the costs are bit-identical — but pricing *before*
            # ``state.allocate`` (which clears the version-tagged cost
            # cache) turns the adaptive allocator's pricing of this
            # same candidate into cache hits instead of re-evaluations.
            aware_view = state.comm_overlay(takes, job.kind)
            aware = {
                comp.pattern: cfg.cost_model.allocation_cost(
                    aware_view, takes, comp.pattern
                )
                for comp in job.comm
            }
        nodes = state.allocate(job.job_id, takes, job.kind)

        cost_jobaware: Dict[str, float] = {}
        cost_default: Dict[str, float] = {}
        runtime = job.runtime
        if job.is_comm_intensive:
            if needs_counterfactual:
                assert default_view is not None and default_takes is not None
                self.last_stats.counterfactual_evaluations += 1
                if default_takes == takes:
                    # the job-aware allocator picked exactly the default
                    # placement — same takes, same overlay counters,
                    # same costs, so the aware prices carry over
                    default = dict(aware)
                else:
                    default = {
                        comp.pattern: cfg.cost_model.allocation_cost(
                            default_view, default_takes, comp.pattern
                        )
                        for comp in job.comm
                    }
            else:
                default = dict(aware)
            if cfg.adjust_runtimes:
                runtime = cfg.cost_model.adjusted_runtime(job, aware, default)
            cost_jobaware = {p.name: c for p, c in aware.items()}
            cost_default = {p.name: c for p, c in default.items()}

        return _Running(
            job=job,
            start_time=now,
            finish_time=now + runtime * remaining,
            nodes=nodes,
            cost_jobaware=cost_jobaware,
            cost_default=cost_default,
        )


def simulate(
    topology: TreeTopology,
    jobs: Sequence[Job],
    allocator: Union[str, Allocator],
    *,
    config: Optional[EngineConfig] = None,
    initial_state: Optional[ClusterState] = None,
    faults: Optional[Sequence[FaultEvent]] = None,
) -> SimulationResult:
    """One-call convenience wrapper around :class:`SchedulerEngine`."""
    return SchedulerEngine(topology, allocator, config).run(jobs, initial_state, faults)
