"""Flow-level simulation of concurrent MPI collectives (Figure 1).

Each workload repeatedly executes a collective: the pattern's steps run
in sequence, each step spawning one flow per ordered (src, dst) node
pair (pairwise exchanges produce both directions). Flow rates follow
max-min fair sharing over the tree's links and are recomputed whenever
the active flow set changes; a step completes when its last flow drains.

The simulator records per-iteration wall-clock durations per workload —
exactly the series plotted in the paper's Figure 1, where job J2's
periodic arrivals spike job J1's iteration times on shared switches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..patterns.base import CommStep, CommunicationPattern
from .._validation import require_positive_int
from .fairshare import max_min_fair_rates
from .network import FlowNetwork

__all__ = ["CollectiveWorkload", "IterationRecord", "FlowSimulator"]


@dataclass(frozen=True)
class CollectiveWorkload:
    """One job that loops a collective over a fixed node set.

    Attributes
    ----------
    msize_bytes:
        Base message size; each step transfers ``step.msize * msize_bytes``.
    iterations:
        How many collectives to run back-to-back.
    start_time / gap_seconds:
        First iteration start, and idle time between iterations (J2 in
        Figure 1 runs every 30 minutes: ``gap_seconds=1800`` with
        ``iterations`` spanning the study window).
    """

    job_id: int
    nodes: Tuple[int, ...]
    pattern: CommunicationPattern
    msize_bytes: float = 1.0
    iterations: int = 1
    start_time: float = 0.0
    gap_seconds: float = 0.0

    def __post_init__(self) -> None:
        require_positive_int(self.iterations, "iterations")
        if len(self.nodes) < 1:
            raise ValueError("workload needs at least one node")
        if self.msize_bytes <= 0:
            raise ValueError("msize_bytes must be > 0")
        if self.start_time < 0 or self.gap_seconds < 0:
            raise ValueError("start_time and gap_seconds must be >= 0")


@dataclass(frozen=True)
class IterationRecord:
    """Start/end of one collective iteration of one workload."""

    job_id: int
    iteration: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Wall-clock seconds this iteration took."""
        return self.end - self.start


@dataclass
class _Flow:
    route: Tuple[int, ...]
    remaining: float


@dataclass
class _JobState:
    workload: CollectiveWorkload
    steps: List[CommStep]
    iteration: int = 0
    step_index: int = -1  # -1 = not yet started
    step_repeat_left: int = 0
    iteration_start: float = 0.0
    next_wake: float = 0.0  # time the job becomes runnable (start/gap)
    flows: List[_Flow] = field(default_factory=list)
    done: bool = False


class FlowSimulator:
    """Event-driven fluid simulation of concurrent collectives.

    After :meth:`run`, ``last_link_bytes`` holds the bytes each directed
    channel carried (indexed like ``network.capacity``) — the input to
    :func:`repro.netsim.stats.link_utilization`.
    """

    def __init__(self, network: FlowNetwork) -> None:
        self.network = network
        self.last_link_bytes = np.zeros(network.n_links, dtype=np.float64)
        self.last_duration = 0.0

    # ------------------------------------------------------------------

    def run(
        self,
        workloads: Sequence[CollectiveWorkload],
        *,
        until: Optional[float] = None,
        max_events: int = 1_000_000,
    ) -> List[IterationRecord]:
        """Simulate all workloads; returns iteration records, time order.

        ``until`` truncates the simulation (open iterations are dropped);
        ``max_events`` guards against accidental infinite progress loops.
        """
        ids = [w.job_id for w in workloads]
        if len(set(ids)) != len(ids):
            raise ValueError("workload job_ids must be unique")
        jobs: List[_JobState] = []
        for w in workloads:
            steps = list(w.pattern.steps(len(w.nodes)))
            state = _JobState(workload=w, steps=steps, next_wake=w.start_time)
            if not steps:  # single rank: iterations take zero time
                state.done = True
            jobs.append(state)

        records: List[IterationRecord] = []
        self.last_link_bytes = np.zeros(self.network.n_links, dtype=np.float64)
        now = 0.0
        for _ in range(max_events):
            active = [j for j in jobs if not j.done]
            if not active:
                break

            # Wake jobs whose start/gap expired and that have no flows.
            for job in active:
                if not job.flows and job.next_wake <= now:
                    self._advance_job(job, now, records)
            active = [j for j in jobs if not j.done]

            flows: List[_Flow] = [f for j in active for f in j.flows]
            if flows:
                rates = max_min_fair_rates([f.route for f in flows], self.network.capacity)
                # time to first flow completion
                dt = min(
                    (f.remaining / r) if r > 0 else math.inf
                    for f, r in zip(flows, rates)
                )
            else:
                dt = math.inf
            # ... or to the next wake-up of an idle job
            wakes = [j.next_wake for j in active if not j.flows and j.next_wake > now]
            if wakes:
                dt = min(dt, min(wakes) - now)
            if not math.isfinite(dt):
                break  # nothing can make progress
            if until is not None and now + dt > until:
                break
            now += dt
            if flows:
                for f, r in zip(flows, rates):
                    if math.isfinite(r):
                        moved = min(r * dt, f.remaining)
                        f.remaining = max(0.0, f.remaining - r * dt)
                        for link in f.route:
                            self.last_link_bytes[link] += moved
                for job in active:
                    job.flows = [f for f in job.flows if f.remaining > 1e-12]
                    if not job.flows and job.step_index >= 0:
                        self._advance_job(job, now, records)
        else:
            raise RuntimeError(f"simulation exceeded {max_events} events")
        self.last_duration = now
        records.sort(key=lambda r: (r.end, r.job_id))
        return records

    # ------------------------------------------------------------------

    def _advance_job(self, job: _JobState, now: float, records: List[IterationRecord]) -> None:
        """Move a job whose current flows drained to its next step/iteration.

        Steps whose pairs are all intra-node are instantaneous; the loop
        keeps advancing at the same timestamp until a step spawns real
        flows, an iteration boundary is reached, or the job completes.
        """
        w = job.workload
        while True:
            if job.step_index == -1:
                job.iteration_start = now
                job.step_index = 0
                job.step_repeat_left = job.steps[0].repeat
            elif job.step_repeat_left > 1:
                job.step_repeat_left -= 1
            else:
                job.step_index += 1
                if job.step_index >= len(job.steps):
                    records.append(
                        IterationRecord(
                            job_id=w.job_id,
                            iteration=job.iteration,
                            start=job.iteration_start,
                            end=now,
                        )
                    )
                    job.iteration += 1
                    job.step_index = -1
                    if job.iteration >= w.iterations:
                        job.done = True
                        return
                    job.next_wake = now + w.gap_seconds
                    if job.next_wake > now:
                        return  # sleep until the next iteration
                    continue  # gapless: begin the next iteration now
                job.step_repeat_left = job.steps[job.step_index].repeat
            if self._spawn_flows(job):
                return

    def _spawn_flows(self, job: _JobState) -> bool:
        """Create the current step's flows; False if the step is free."""
        step = job.steps[job.step_index]
        w = job.workload
        nodes = w.nodes
        volume = step.msize * w.msize_bytes
        flows: List[_Flow] = []
        for src_rank, dst_rank in step.pairs:
            src, dst = nodes[int(src_rank)], nodes[int(dst_rank)]
            if src == dst:
                continue
            flows.append(_Flow(route=self.network.route(src, dst), remaining=volume))
            if step.exchange:
                # pairwise exchange: data moves both ways (full duplex)
                flows.append(_Flow(route=self.network.route(dst, src), remaining=volume))
        job.flows = flows
        return bool(flows)
