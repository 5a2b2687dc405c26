"""Queueing policies: FIFO and EASY backfilling (paper §3.1).

SLURM's default scheduler is FIFO with backfilling. EASY backfill makes
a single reservation for the queue head: compute the *shadow time* (the
earliest instant the head job could start given running jobs' expected
completions) and the *extra nodes* (nodes free at the shadow time beyond
the head's request); a queued job may jump ahead only if it would finish
by the shadow time or fits inside the extra nodes — so the head job is
never delayed.

The policy objects are pure: they look at queue + running-job facts and
return which jobs to start now, leaving all mutation to the engine.

The queue as arrays
-------------------
The engine and the online controller keep their queue in a
:class:`JobQueue`: the jobs in queue order, plus their node counts and
runtimes in two numpy arrays that every append and every
:meth:`JobQueue.take` keeps in step (``Job`` is frozen, so a queued
job's fields cannot change under them). A policy reads a ``JobQueue``
like any sequence of jobs.

An overloaded log keeps about a thousand jobs queued behind a blocked
head, and an EASY pass walks all of them to start almost none. When the
range to scan holds at least ``_MASK_MIN_SCAN`` jobs of a ``JobQueue``,
the scan first evaluates ``(nodes <= free) & ((now + runtime <= shadow)
| (nodes <= extra))`` once over the arrays and walks only the jobs it
admits, in queue order, with the same exact per-job test. That is
exact: ``free`` and ``extra`` only fall during a pass, so a job the
mask rejects would fail the walk's test too, and numpy's float64
``now + runtime <= shadow`` is the same IEEE operation as Python's.
Below the limit, or over a plain sequence, the scan walks every job:
numpy's fixed cost per call exceeds a short walk, and an always-on mask
made short-queue workloads slower.

Incremental passes
------------------
Policies additionally expose an *incremental* protocol the engine uses
to avoid re-scanning the queue when provably nothing changed:

* :meth:`begin_pass` — a full scan that also returns a *carry*: the
  scan's final internal facts (remaining free nodes, EASY's shadow
  window, conservative's reserved availability profile) plus how much
  of the queue was scanned.
* :meth:`extend_pass` — given a carry from a pass that picked nothing,
  evaluate only jobs appended since, against the carried facts.

A carry is only ever replayed by the engine when (a) the prior pass
picked nothing, (b) the cluster state version is unchanged (no job
started, finished, or faulted), and (c) time only moved forward. Under
those conditions every previously rejected job is rejected again — a
blocked FIFO head stays blocked, ``now + runtime <= shadow`` only gets
harder as ``now`` grows while shadow/extra/free are frozen, and every
conservative reservation lies strictly in the future — so scanning just
the appended suffix reproduces the full pass bit-for-bit (property-
tested in ``tests/scheduler/test_incremental_equivalence.py``, and
assertable at runtime via ``EngineConfig(verify_incremental=True)``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from ..obs import runtime as obs_runtime
from ..cluster.job import Job

__all__ = [
    "JobQueue",
    "RunningJobView",
    "RunningViews",
    "QueuePolicy",
    "FifoPolicy",
    "EasyBackfillPolicy",
    "FifoCarry",
    "EasyCarry",
    "iter_running_by_finish",
    "get_policy",
]


class JobQueue:
    """Queued jobs in queue order, with their node counts and runtimes as arrays.

    ``nodes`` (int64) and ``runtime`` (float64) hold the queued jobs'
    fields in queue order; :meth:`append` and :meth:`take` are the only
    mutators and keep them in step with the jobs. The class is
    deliberately not a ``list``: a list mutator it did not override
    (``insert``, ``pop``, slice deletion, ``+=``) would leave the arrays
    out of step. Reading is list-like: ``len``, indexing and iteration.
    """

    __slots__ = ("_jobs", "_nodes", "_runtime")

    def __init__(self, jobs: Iterable[Job] = ()) -> None:
        self._jobs: List[Job] = []
        self._nodes = np.empty(64, dtype=np.int64)
        self._runtime = np.empty(64, dtype=np.float64)
        for job in jobs:
            self.append(job)

    def append(self, job: Job) -> None:
        """Queue ``job`` at the tail (an arrival or a requeue)."""
        n = len(self._jobs)
        if n == self._nodes.size:
            # amortized doubling: copies stay O(1) per append
            self._nodes = np.concatenate((self._nodes, np.empty(n, dtype=np.int64)))
            self._runtime = np.concatenate((self._runtime, np.empty(n, dtype=np.float64)))
        self._nodes[n] = job.nodes
        self._runtime[n] = job.runtime
        self._jobs.append(job)

    def take(self, picks: Sequence[int]) -> List[Job]:
        """Remove the jobs at queue indices ``picks``; return them in pick order.

        One compaction closes every gap at once: each stretch of jobs
        between two picks moves left by the number of picks before it.
        """
        jobs = self._jobs
        taken = [jobs[i] for i in picks]
        if not taken:
            return taken
        order = sorted(picks)
        n = len(jobs)
        nodes, runtime = self._nodes, self._runtime
        write = order[0]
        for k, idx in enumerate(order):
            stop = order[k + 1] if k + 1 < len(order) else n
            moved = stop - idx - 1
            nodes[write : write + moved] = nodes[idx + 1 : stop]
            runtime[write : write + moved] = runtime[idx + 1 : stop]
            write += moved
        for idx in reversed(order):
            del jobs[idx]
        return taken

    @property
    def nodes(self) -> np.ndarray:
        """The queued jobs' node counts, in queue order (a live view; do not write)."""
        return self._nodes[: len(self._jobs)]

    @property
    def runtime(self) -> np.ndarray:
        """The queued jobs' runtimes, in queue order (a live view; do not write)."""
        return self._runtime[: len(self._jobs)]

    def __len__(self) -> int:
        return len(self._jobs)

    def __getitem__(self, index):
        return self._jobs[index]

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)


@dataclass(frozen=True)
class RunningJobView:
    """What a policy may know about a running job."""

    finish_estimate: float
    nodes: int


class RunningViews:
    """Finish-ordered running-job facts, maintained incrementally.

    The engine adds an entry when a job starts and removes it when the
    job finishes (or is killed by a fault), instead of rebuilding a
    view list on every scheduling pass. Entries carry a monotonically
    increasing insertion sequence so that ordering by ``(finish, seq)``
    reproduces exactly what policies previously saw from a stable sort
    of the per-pass list (which was built in start order): jobs with
    equal finish estimates stay in start order.
    """

    __slots__ = ("_entries", "_sorted", "_seq")

    def __init__(self) -> None:
        self._entries: dict = {}  # job_id -> (finish, seq, nodes)
        self._sorted: List[Tuple[float, int, int]] = []
        self._seq = 0

    def add(self, job_id: int, finish_estimate: float, nodes: int) -> None:
        """Insert a started job's ``(finish, nodes)`` facts."""
        entry = (float(finish_estimate), self._seq, int(nodes))
        self._seq += 1
        self._entries[job_id] = entry
        bisect.insort(self._sorted, entry)

    def remove(self, job_id: int) -> None:
        """Drop a finished or faulted job's entry."""
        entry = self._entries.pop(job_id)
        i = bisect.bisect_left(self._sorted, entry)
        del self._sorted[i]  # entries are unique: seq is never reused

    def __len__(self) -> int:
        return len(self._sorted)

    def iter_by_finish(self) -> Iterator[Tuple[float, int]]:
        """Yield ``(finish_estimate, nodes)`` in ascending finish order."""
        for finish, _seq, nodes in self._sorted:
            yield finish, nodes


RunningFacts = Union[Sequence[RunningJobView], RunningViews]


def iter_running_by_finish(
    running: RunningFacts,
) -> Iterable[Tuple[float, int]]:
    """``(finish_estimate, nodes)`` pairs in ascending finish order.

    Accepts either the engine's incrementally sorted :class:`RunningViews`
    (already ordered — no sort) or any plain sequence of
    :class:`RunningJobView` (sorted here, stably, like the policies
    always did), so `select_startable` stays a pure standalone API.
    """
    if isinstance(running, RunningViews):
        return running.iter_by_finish()
    return (
        (view.finish_estimate, view.nodes)
        for view in sorted(running, key=lambda v: v.finish_estimate)
    )


class QueuePolicy(Protocol):
    """Selects queued jobs to start, preserving fairness guarantees."""

    name: str

    def select_startable(
        self,
        now: float,
        queue: Sequence[Job],
        free_nodes: int,
        running: RunningFacts,
    ) -> List[int]:
        """Return queue indices to start *now*, in start order."""
        ...


def _head_run(queue: Sequence[Job], free_nodes: int) -> Tuple[List[int], int]:
    """Start jobs strictly from the head while they fit (common FIFO core)."""
    picks: List[int] = []
    for idx, job in enumerate(queue):
        if job.nodes <= free_nodes:
            picks.append(idx)
            free_nodes -= job.nodes
        else:
            break
    return picks, free_nodes


#: Shortest scan range, in jobs, that is prefiltered with one mask over
#: a JobQueue's arrays. ``scripts/scan_breakeven.py`` times the scan of a
#: seeded Theta queue with nothing startable, best of 7, in µs, walk vs
#: mask (two runs on a 2-core Xeon VM): 64 jobs 4.0-6.0 vs 6.4-10.5,
#: 96 jobs 5.2-8.0 vs 5.9-6.1, 128 jobs 7.1-7.2 vs 6.1-6.7, 1,024 jobs
#: 61-92 vs 13-14. The mask's fixed cost of about 6 µs overtakes the
#: walk between 64 and 128 jobs.
_MASK_MIN_SCAN = 96


def _easy_scan(
    now: float,
    queue: Sequence[Job],
    lo: int,
    free: int,
    shadow: float,
    extra: int,
    picks: List[int],
) -> Tuple[int, int]:
    """Backfill ``queue[lo:]`` behind the head's reservation.

    Appends the started indices to ``picks`` in queue order and returns
    the remaining ``(free, extra)``. A long range of a :class:`JobQueue`
    is prefiltered with one mask over its arrays (see the module
    docstring); every index walked gets the same exact test.
    """
    n = len(queue)
    indices: Iterable[int] = range(lo, n)
    jobs = queue
    if isinstance(queue, JobQueue):
        jobs = queue._jobs
        if n - lo >= _MASK_MIN_SCAN:
            nodes = queue._nodes[lo:n]
            ok = (nodes <= free) & (
                (now + queue._runtime[lo:n] <= shadow) | (nodes <= extra)
            )
            indices = (np.flatnonzero(ok) + lo).tolist()
    for idx in indices:
        job = jobs[idx]
        if job.nodes > free:
            continue
        ends_before_shadow = now + job.runtime <= shadow
        fits_in_extra = job.nodes <= extra
        if ends_before_shadow or fits_in_extra:
            picks.append(idx)
            free -= job.nodes
            if not ends_before_shadow:
                extra -= job.nodes
    return free, extra


@dataclass
class FifoCarry:
    """Facts a failed FIFO pass leaves for arrival-only extensions."""

    scanned: int  # queue length when the carry was taken
    free_nodes: int  # free nodes after the scan (== all free: no picks)
    blocked: bool  # a queued job already failed to fit (head blocks)


@dataclass
class EasyCarry:
    """Facts a failed EASY pass leaves for arrival-only extensions."""

    scanned: int
    free_nodes: int
    shadow: Optional[float]  # None: no reservation (oversized head)
    extra: int
    empty: bool  # the queue was empty — no head, no shadow window


class FifoPolicy:
    """Strict first-in-first-out: the head blocks everyone behind it."""

    name = "fifo"
    incremental_ok = True

    def select_startable(
        self,
        now: float,
        queue: Sequence[Job],
        free_nodes: int,
        running: RunningFacts,
    ) -> List[int]:
        """Start jobs strictly from the head while they fit."""
        picks, _ = _head_run(queue, free_nodes)
        return picks

    def begin_pass(
        self,
        now: float,
        queue: Sequence[Job],
        free_nodes: int,
        running: RunningFacts,
    ) -> Tuple[List[int], FifoCarry]:
        """Full FIFO pass; also returns the blocked-head carry."""
        picks, free = _head_run(queue, free_nodes)
        carry = FifoCarry(
            scanned=len(queue), free_nodes=free, blocked=len(picks) < len(queue)
        )
        obs_runtime.count("policy.jobs_scanned", len(queue))
        obs_runtime.count("policy.jobs_picked", len(picks))
        return picks, carry

    def extend_pass(
        self,
        now: float,
        queue: Sequence[Job],
        running: RunningFacts,
        carry: FifoCarry,
    ) -> Tuple[List[int], FifoCarry]:
        """Evaluate only jobs appended since ``carry``."""
        picks: List[int] = []
        free = carry.free_nodes
        blocked = carry.blocked
        for idx in range(carry.scanned, len(queue)):
            if blocked:
                break
            job = queue[idx]
            if job.nodes <= free:
                picks.append(idx)
                free -= job.nodes
            else:
                blocked = True
        obs_runtime.count("policy.jobs_scanned", len(queue) - carry.scanned)
        obs_runtime.count("policy.jobs_picked", len(picks))
        return picks, FifoCarry(scanned=len(queue), free_nodes=free, blocked=blocked)


class EasyBackfillPolicy:
    """FIFO + EASY backfilling with a one-job reservation."""

    name = "backfill"
    incremental_ok = True

    def select_startable(
        self,
        now: float,
        queue: Sequence[Job],
        free_nodes: int,
        running: RunningFacts,
    ) -> List[int]:
        """Head run plus EASY backfill behind one reservation."""
        picks, _ = self.begin_pass(now, queue, free_nodes, running)
        return picks

    def begin_pass(
        self,
        now: float,
        queue: Sequence[Job],
        free_nodes: int,
        running: RunningFacts,
    ) -> Tuple[List[int], EasyCarry]:
        """Full EASY pass; also returns the shadow-window carry."""
        picks, free_nodes = _head_run(queue, free_nodes)
        head_idx = len(picks)
        if head_idx >= len(queue):
            obs_runtime.count("policy.jobs_scanned", len(queue))
            obs_runtime.count("policy.jobs_picked", len(picks))
            return picks, EasyCarry(len(queue), free_nodes, None, 0, empty=True)
        head = queue[head_idx]

        # Shadow time: walk running jobs by expected completion until
        # enough nodes have accumulated for the head job. The walk does
        # not count the jobs this pass started from the head run (they
        # join the running views after the pass), so a second pass with
        # nothing changed in between can compute another reservation
        # and start more jobs: passes are not idempotent.
        shadow = None
        extra = 0
        accumulated = free_nodes
        for finish, nodes in iter_running_by_finish(running):
            accumulated += nodes
            if accumulated >= head.nodes:
                shadow = finish
                extra = accumulated - head.nodes
                break
        if shadow is None:
            # Head job can never start (larger than the machine); engine
            # rejects such jobs up front, but stay safe: no backfilling
            # guarantees exist without a reservation.
            obs_runtime.count("policy.jobs_scanned", len(queue))
            obs_runtime.count("policy.jobs_picked", len(picks))
            return picks, EasyCarry(len(queue), free_nodes, None, 0, empty=False)

        free_nodes, extra = _easy_scan(
            now, queue, head_idx + 1, free_nodes, shadow, extra, picks
        )
        obs_runtime.count("policy.jobs_scanned", len(queue))
        obs_runtime.count("policy.jobs_picked", len(picks))
        return picks, EasyCarry(len(queue), free_nodes, shadow, extra, empty=False)

    def extend_pass(
        self,
        now: float,
        queue: Sequence[Job],
        running: RunningFacts,
        carry: EasyCarry,
    ) -> Tuple[List[int], EasyCarry]:
        """Evaluate only jobs appended since ``carry`` against its window."""
        if carry.empty:
            # The whole queue arrived since the carry: a full pass over
            # it is exactly the suffix evaluation.
            return self.begin_pass(now, queue, carry.free_nodes, running)
        if carry.shadow is None:
            return [], EasyCarry(len(queue), carry.free_nodes, None, 0, empty=False)
        picks: List[int] = []
        shadow = carry.shadow
        free, extra = _easy_scan(
            now, queue, carry.scanned, carry.free_nodes, shadow, carry.extra, picks
        )
        obs_runtime.count("policy.jobs_scanned", len(queue) - carry.scanned)
        obs_runtime.count("policy.jobs_picked", len(picks))
        return picks, EasyCarry(len(queue), free, shadow, extra, empty=False)


def _conservative():
    from .conservative import ConservativeBackfillPolicy

    return ConservativeBackfillPolicy()


_POLICIES = {
    "fifo": FifoPolicy,
    "backfill": EasyBackfillPolicy,
    "conservative": _conservative,
}


def get_policy(name: str) -> QueuePolicy:
    """Instantiate a queue policy: ``fifo``, ``backfill``, or ``conservative``."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; known: {sorted(_POLICIES)}") from None
