"""Conservative backfilling — a stricter cousin of EASY (extension).

EASY reserves only for the queue head; a backfilled job may still delay
jobs deeper in the queue. *Conservative* backfilling gives **every**
queued job a reservation and admits a candidate only if it delays none
of them. SLURM's ``sched/backfill`` approximates conservative when
``bf_max_job_test`` is large, so this is a realistic policy ablation
for the paper's wait-time results.

Implementation: the canonical availability-profile walk. Node
availability over future time is a step function seeded from running
jobs' expected completions; queued jobs are processed in FIFO order,
each placed at the earliest interval that fits and *reserved* there —
jobs whose reservation lands at the current instant start now.

The profile is seeded with one cumulative walk over the finish-sorted
running jobs (O(R log R) overall) instead of re-adding each job to
every later segment (O(R^2)); and a failed pass carries its fully
*reserved* profile forward, so jobs that arrive before anything else
changes are placed against the stored timeline instead of rebuilding
and re-reserving the whole queue from scratch (the O(Q^2) hot path this
policy showed on large traces). Replaying the carry is sound because
every stored breakpoint beyond the leading segment is strictly in the
future: availability only rises at running-job finish estimates (all
later than any carried-to instant — an earlier finish would have fired
a FINISH event and invalidated the carry) and reservations start at
those rises (a reservation starting "now" means the job started, which
also invalidates the carry).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..cluster.job import Job
from .queue_policy import RunningFacts, iter_running_by_finish

__all__ = ["ConservativeBackfillPolicy", "ConservativeCarry"]


class _AvailabilityProfile:
    """Piecewise-constant available-node count over [now, infinity).

    ``avail[i]`` holds on ``[times[i], times[i+1])``; the last segment
    extends to infinity.
    """

    def __init__(self, now: float, free: int, running: RunningFacts) -> None:
        self.times: List[float] = [now]
        self.avail: List[int] = [free]
        # One cumulative walk over the finish-sorted jobs: availability
        # at time t is free + sum(nodes finishing at or before t), so
        # grouping equal (clamped) finish times and accumulating builds
        # every segment directly.
        pairs = list(iter_running_by_finish(running))
        cum = free
        i = 0
        while i < len(pairs):
            t = max(pairs[i][0], now)
            add = 0
            while i < len(pairs) and max(pairs[i][0], now) == t:
                add += pairs[i][1]
                i += 1
            cum += add
            if t == now:
                self.avail[0] = cum
            else:
                self.times.append(t)
                self.avail.append(cum)

    @classmethod
    def from_carry(
        cls, now: float, times: Sequence[float], avail: Sequence[int]
    ) -> "_AvailabilityProfile":
        """Rehydrate a carried (already reserved) profile at a later now.

        Only the leading segment's start is moved up to ``now`` — every
        other breakpoint is strictly later (see module docstring), so
        the step function over ``[now, inf)`` is unchanged.
        """
        profile = cls.__new__(cls)
        profile.times = list(times)
        profile.avail = list(avail)
        profile.times[0] = now
        return profile

    def _breakpoint(self, t: float) -> int:
        """Index of the segment starting exactly at ``t``, inserting it."""
        i = bisect.bisect_left(self.times, t)
        if i == len(self.times) or self.times[i] != t:
            # split the segment containing t (it is the one at i-1)
            self.times.insert(i, t)
            self.avail.insert(i, self.avail[i - 1])
        return i

    def earliest_fit(self, nodes: int, duration: float) -> float:
        """Earliest start with >= ``nodes`` free throughout ``duration``.

        Returns ``inf`` when no amount of waiting helps (the request
        exceeds even the fully drained availability — possible with
        permanent background load from ``initial_state``).
        """
        for i, start in enumerate(self.times):
            end = start + duration
            ok = True
            k = i
            # check every segment overlapping [start, end)
            while k < len(self.times) and self.times[k] < end:
                if self.avail[k] < nodes:
                    ok = False
                    break
                k += 1
            if ok:
                return start
        return float("inf")

    def reserve(self, start: float, duration: float, nodes: int) -> None:
        """Subtract ``nodes`` over ``[start, start + duration)``."""
        if duration <= 0:
            return
        i = self._breakpoint(start)
        end = start + duration
        j = self._breakpoint(end)
        for k in range(i, j):
            self.avail[k] -= nodes


@dataclass
class ConservativeCarry:
    """A failed pass's reserved availability timeline, for extensions."""

    scanned: int
    times: Tuple[float, ...]
    avail: Tuple[int, ...]


class ConservativeBackfillPolicy:
    """Backfill with a reservation for every queued job."""

    name = "conservative"
    incremental_ok = True

    def select_startable(
        self,
        now: float,
        queue: Sequence[Job],
        free_nodes: int,
        running: RunningFacts,
    ) -> List[int]:
        """Return queue indices to start now (full conservative pass)."""
        picks, _ = self.begin_pass(now, queue, free_nodes, running)
        return picks

    def begin_pass(
        self,
        now: float,
        queue: Sequence[Job],
        free_nodes: int,
        running: RunningFacts,
    ) -> Tuple[List[int], ConservativeCarry]:
        """Full pass; also returns the reservation-timeline carry."""
        profile = _AvailabilityProfile(now, free_nodes, running)
        picks = self._process(now, queue, 0, profile)
        carry = ConservativeCarry(
            scanned=len(queue), times=tuple(profile.times), avail=tuple(profile.avail)
        )
        return picks, carry

    def extend_pass(
        self,
        now: float,
        queue: Sequence[Job],
        running: RunningFacts,
        carry: ConservativeCarry,
    ) -> Tuple[List[int], ConservativeCarry]:
        """Evaluate only jobs appended since ``carry`` against its timeline."""
        profile = _AvailabilityProfile.from_carry(now, carry.times, carry.avail)
        picks = self._process(now, queue, carry.scanned, profile)
        new_carry = ConservativeCarry(
            scanned=len(queue), times=tuple(profile.times), avail=tuple(profile.avail)
        )
        return picks, new_carry

    @staticmethod
    def _process(
        now: float, queue: Sequence[Job], start_idx: int, profile: _AvailabilityProfile
    ) -> List[int]:
        picks: List[int] = []
        for idx in range(start_idx, len(queue)):
            job = queue[idx]
            duration = max(job.runtime, 1e-9)
            start = profile.earliest_fit(job.nodes, duration)
            if start == float("inf"):
                continue  # can never fit (permanent background load)
            profile.reserve(start, duration, job.nodes)
            if start == now:
                picks.append(idx)
        return picks
