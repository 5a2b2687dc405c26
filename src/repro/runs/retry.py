"""Retry policy for the resilient task executor.

Backoff is deterministic: reproducibility is this repo's organizing
principle, and the executor's outputs must be bit-identical regardless
of how many times a task was retried — so the only thing a delay
schedule may influence is wall-clock time, never results. The delay
before attempt ``n+1`` is ``backoff_base * backoff_factor**(n-1)``
seconds, capped at ``backoff_max``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "RetryPolicy",
    "ON_ERROR_MODES",
    "ON_ERROR_RETRY",
    "ON_ERROR_SKIP",
    "ON_ERROR_RAISE",
    "ON_ERROR_QUARANTINE",
    "require_on_error",
]

#: what the executor does when a task attempt fails:
#: ``retry``      — back off and retry up to ``max_retries``; then raise.
#: ``skip``       — retry up to ``max_retries``; then record the cell as
#:                  missing and keep going (graceful degradation).
#: ``raise``      — fail fast on the first error, no retries.
#: ``quarantine`` — retry up to ``max_retries``; then record the cell as
#:                  *quarantined* with its last error and keep going. The
#:                  difference from ``skip`` is visibility: quarantined
#:                  cells are carried on the result object, journaled,
#:                  counted in ``runs.quarantined_cells``, and warned
#:                  about at the end of the batch — a dropped cell can
#:                  never disappear silently.
ON_ERROR_RETRY = "retry"
ON_ERROR_SKIP = "skip"
ON_ERROR_RAISE = "raise"
ON_ERROR_QUARANTINE = "quarantine"
ON_ERROR_MODES = (ON_ERROR_RETRY, ON_ERROR_SKIP, ON_ERROR_RAISE, ON_ERROR_QUARANTINE)


def require_on_error(mode: str) -> str:
    """Validate an ``on_task_error`` mode name, returning it."""
    if mode not in ON_ERROR_MODES:
        raise ValueError(
            f"unknown on_task_error mode {mode!r}; known: {list(ON_ERROR_MODES)}"
        )
    return mode


@dataclass(frozen=True)
class RetryPolicy:
    """How failed task attempts are retried.

    Attributes
    ----------
    max_retries:
        Extra attempts after the first (0 = single attempt). An attempt
        is *used* whenever a submission ends without a result: the task
        raised, it exceeded ``timeout``, or the worker pool broke while
        it was in flight (a crashed worker cannot say which task killed
        it, so every in-flight task is charged one attempt).
    backoff_base:
        Delay before the second attempt, seconds.
    backoff_factor:
        Multiplier applied per subsequent attempt.
    backoff_max:
        Ceiling on any single delay, seconds.
    timeout:
        Wall-clock budget per attempt, seconds (``None`` = unlimited).
        Enforced only on the process-pool path — a hung worker is
        terminated and the pool rebuilt; the serial path cannot preempt
        its own process and ignores it.
    """

    max_retries: int = 0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_max < 0:
            raise ValueError(f"backoff_max must be >= 0, got {self.backoff_max}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")

    @property
    def max_attempts(self) -> int:
        """Total attempts allowed per task."""
        return self.max_retries + 1

    def delay(self, failed_attempts: int) -> float:
        """Seconds to wait before the next attempt.

        ``failed_attempts`` is how many attempts have already failed
        (>= 1 when a retry is being scheduled).
        """
        if failed_attempts < 1:
            raise ValueError(f"failed_attempts must be >= 1, got {failed_attempts}")
        return min(
            self.backoff_base * self.backoff_factor ** (failed_attempts - 1),
            self.backoff_max,
        )
