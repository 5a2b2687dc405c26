"""Discrete-event SLURM-like scheduler (FIFO + EASY backfill, Eq. 7)."""

from .conservative import ConservativeBackfillPolicy
from .engine import EngineConfig, SchedulerEngine, SchedulerStats, simulate
from .events import Event, EventKind, EventQueue
from .metrics import SECONDS_PER_HOUR, JobRecord, SimulationResult, percent_improvement
from .serialize import dump_result, load_result, result_from_dict, result_to_dict
from .queue_policy import (
    EasyBackfillPolicy,
    FifoPolicy,
    JobQueue,
    QueuePolicy,
    RunningJobView,
    get_policy,
)

__all__ = [
    "EngineConfig",
    "SchedulerEngine",
    "SchedulerStats",
    "simulate",
    "Event",
    "EventKind",
    "EventQueue",
    "SECONDS_PER_HOUR",
    "JobRecord",
    "SimulationResult",
    "percent_improvement",
    "ConservativeBackfillPolicy",
    "EasyBackfillPolicy",
    "FifoPolicy",
    "JobQueue",
    "QueuePolicy",
    "RunningJobView",
    "get_policy",
    "dump_result",
    "load_result",
    "result_from_dict",
    "result_to_dict",
]
