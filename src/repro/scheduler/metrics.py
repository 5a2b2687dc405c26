"""Per-job records and aggregate metrics (paper §5.4).

The paper evaluates five metrics: execution time, wait time, turnaround
time, node-hours, and Eq. 6 communication cost. :class:`JobRecord`
captures everything needed to compute all five per job;
:class:`SimulationResult` aggregates them the way the paper's tables do
(total hours over the whole log, averages, per-job series).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..cluster.job import Job

__all__ = ["JobRecord", "SimulationResult", "percent_improvement", "SECONDS_PER_HOUR"]

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one job in a simulation run.

    ``cost_jobaware`` / ``cost_default`` are the Eq. 6 costs of the
    job's communication components under the run's allocator and under
    the counterfactual default allocation from the same cluster state
    (identical for compute-intensive jobs: both zero).

    For a job interrupted by failures, ``start_time`` / ``finish_time``
    / ``nodes`` describe its *final* run (the one that completed — or,
    for ``failed=True``, the aborted one); occupancy burned by earlier
    interrupted runs is accounted in ``wasted_node_seconds``.
    """

    job: Job
    start_time: float
    finish_time: float
    nodes: np.ndarray
    cost_jobaware: Dict[str, float] = field(default_factory=dict)
    cost_default: Dict[str, float] = field(default_factory=dict)
    #: times the job was interrupted by a failure and restarted
    requeues: int = 0
    #: node-seconds of occupancy lost to interruptions (never completed work)
    wasted_node_seconds: float = 0.0
    #: True when the job was abandoned after a failure (never completed)
    failed: bool = False

    @property
    def execution_time(self) -> float:
        """Seconds between start and completion (paper metric 1)."""
        return self.finish_time - self.start_time

    @property
    def wait_time(self) -> float:
        """Seconds between submission and start (paper metric 2)."""
        return self.start_time - self.job.submit_time

    @property
    def turnaround_time(self) -> float:
        """Seconds between submission and completion (paper metric 3)."""
        return self.finish_time - self.job.submit_time

    @property
    def node_seconds(self) -> float:
        """Nodes x execution time (paper metric 4, in node-seconds)."""
        return self.job.nodes * self.execution_time

    def bounded_slowdown(self, threshold: float = 10.0) -> float:
        """Standard BSLD: ``max((wait + run) / max(run, tau), 1)``.

        Not one of the paper's five metrics, but the scheduling
        literature's default responsiveness measure (Feitelson et al.);
        ``threshold`` (tau, seconds) stops sub-second jobs from
        dominating the average.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        denom = max(self.execution_time, threshold)
        return max((self.wait_time + self.execution_time) / denom, 1.0)

    @property
    def gross_node_seconds(self) -> float:
        """Final-run occupancy plus interruption waste, node-seconds."""
        return self.node_seconds + self.wasted_node_seconds

    @property
    def total_cost_jobaware(self) -> float:
        """Summed Eq. 6 cost over communication components (paper metric 5)."""
        return float(sum(self.cost_jobaware.values()))

    @property
    def total_cost_default(self) -> float:
        """Summed Eq. 6 cost of the counterfactual default placement."""
        return float(sum(self.cost_default.values()))


class SimulationResult:
    """All job records of one run plus the paper's aggregate metrics.

    ``unstarted`` holds jobs that could never start before the event
    horizon closed — possible only under fault injection, when enough
    of the machine stays DOWN that a request no longer fits.
    """

    def __init__(
        self,
        allocator_name: str,
        records: Sequence[JobRecord],
        unstarted: Sequence[Job] = (),
    ) -> None:
        self.allocator_name = allocator_name
        self.records: List[JobRecord] = sorted(records, key=lambda r: r.job.job_id)
        self.unstarted: List[Job] = sorted(unstarted, key=lambda j: j.job_id)
        #: :meth:`repro.obs.PerfRecorder.snapshot` report when the run
        #: was traced (``EngineConfig(collect_perf=True)``), else None.
        #: Diagnostics only — never serialized by ``dump_result``.
        self.perf: Optional[Dict] = None

    def __len__(self) -> int:
        return len(self.records)

    def record_for(self, job_id: int) -> JobRecord:
        """The finished record of ``job_id`` (KeyError when absent)."""
        for record in self.records:
            if record.job.job_id == job_id:
                return record
        raise KeyError(f"no record for job {job_id}")

    # ------------------------------------------------------------------
    # per-job series (seconds / raw units)
    # ------------------------------------------------------------------

    def _series(self, attr: str) -> np.ndarray:
        return np.array([getattr(r, attr) for r in self.records], dtype=np.float64)

    @property
    def execution_times(self) -> np.ndarray:
        """Per-job execution times, in finish order."""
        return self._series("execution_time")

    @property
    def wait_times(self) -> np.ndarray:
        """Per-job wait times, in finish order."""
        return self._series("wait_time")

    @property
    def turnaround_times(self) -> np.ndarray:
        """Per-job turnaround times, in finish order."""
        return self._series("turnaround_time")

    @property
    def node_seconds(self) -> np.ndarray:
        """Per-job node-seconds, in finish order."""
        return self._series("node_seconds")

    @property
    def costs_jobaware(self) -> np.ndarray:
        """Per-job summed Eq. 6 costs of the actual placements."""
        return self._series("total_cost_jobaware")

    @property
    def costs_default(self) -> np.ndarray:
        """Per-job summed Eq. 6 costs of the default counterfactuals."""
        return self._series("total_cost_default")

    @property
    def requested_nodes(self) -> np.ndarray:
        """Per-job requested node counts, in finish order."""
        return np.array([r.job.nodes for r in self.records], dtype=np.int64)

    # ------------------------------------------------------------------
    # aggregates in the paper's units (hours)
    # ------------------------------------------------------------------

    @property
    def total_execution_hours(self) -> float:
        """Summed execution time over all jobs, hours (Table 3 columns)."""
        return float(self.execution_times.sum()) / SECONDS_PER_HOUR

    @property
    def total_wait_hours(self) -> float:
        """Summed wait time over all jobs, hours (Table 3 columns)."""
        return float(self.wait_times.sum()) / SECONDS_PER_HOUR

    @property
    def avg_turnaround_hours(self) -> float:
        """Mean turnaround, hours (Figure 9 left panel). 0 with no records
        (possible under fault injection when every job ends unstarted)."""
        if not self.records:
            return 0.0
        return float(self.turnaround_times.mean()) / SECONDS_PER_HOUR

    @property
    def avg_node_hours(self) -> float:
        """Mean node-hours per job (Figure 9 right panel); 0 with no records."""
        if not self.records:
            return 0.0
        return float(self.node_seconds.mean()) / SECONDS_PER_HOUR

    @property
    def total_node_hours(self) -> float:
        """Summed node-hours across all finished jobs."""
        return float(self.node_seconds.sum()) / SECONDS_PER_HOUR

    def bounded_slowdowns(self, threshold: float = 10.0) -> np.ndarray:
        """Per-job bounded slowdown series (see JobRecord.bounded_slowdown)."""
        return np.array(
            [r.bounded_slowdown(threshold) for r in self.records], dtype=np.float64
        )

    def mean_bounded_slowdown(self, threshold: float = 10.0) -> float:
        """Mean BSLD over the run (1.0 = every job ran immediately)."""
        if not self.records:
            return 1.0
        return float(self.bounded_slowdowns(threshold).mean())

    @property
    def makespan(self) -> float:
        """Seconds from time 0 to the last completion."""
        return max((r.finish_time for r in self.records), default=0.0)

    @property
    def mean_cost_jobaware(self) -> float:
        """Mean Eq. 6 cost over communication-intensive jobs (Figure 8)."""
        comm = [r.total_cost_jobaware for r in self.records if r.job.is_comm_intensive]
        return float(np.mean(comm)) if comm else 0.0

    # ------------------------------------------------------------------
    # fault / availability aggregates
    # ------------------------------------------------------------------

    @property
    def failed_count(self) -> int:
        """Jobs abandoned after a failure (interrupt policy ``abandon``)."""
        return sum(1 for r in self.records if r.failed)

    @property
    def requeue_count(self) -> int:
        """Total failure-triggered restarts across all jobs."""
        return sum(r.requeues for r in self.records)

    @property
    def wasted_node_hours(self) -> float:
        """Node-hours burned by interrupted runs that never completed."""
        return float(sum(r.wasted_node_seconds for r in self.records)) / SECONDS_PER_HOUR

    @property
    def goodput_node_hours(self) -> float:
        """Node-hours of completed (non-failed) final runs — useful work."""
        good = sum(r.node_seconds for r in self.records if not r.failed)
        return float(good) / SECONDS_PER_HOUR

    def summary(self) -> Dict[str, float]:
        """All headline aggregates as one dict (for reports / CLI)."""
        return {
            "jobs": float(len(self.records)),
            "total_execution_hours": self.total_execution_hours,
            "total_wait_hours": self.total_wait_hours,
            "avg_turnaround_hours": self.avg_turnaround_hours,
            "avg_node_hours": self.avg_node_hours,
            "makespan_hours": self.makespan / SECONDS_PER_HOUR,
            "mean_cost_jobaware": self.mean_cost_jobaware,
            "mean_bounded_slowdown": self.mean_bounded_slowdown(),
            "failed_jobs": float(self.failed_count),
            "total_requeues": float(self.requeue_count),
            "wasted_node_hours": self.wasted_node_hours,
            "goodput_node_hours": self.goodput_node_hours,
            "unstarted_jobs": float(len(self.unstarted)),
        }


def percent_improvement(baseline: float, candidate: float) -> float:
    """Paper-style percent improvement of ``candidate`` over ``baseline``.

    Positive = candidate is better (smaller). Returns 0 when the
    baseline is 0 (no meaningful relative change).
    """
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - candidate) / baseline
