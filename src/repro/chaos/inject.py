"""Primitive chaos injectors.

Three layers of fault, matching the three kinds of
:class:`~repro.chaos.plan.ChaosAction` target:

* artifact corruption — :func:`flip_byte` and :func:`tear_file` mutate
  files on disk the way bit rot and torn writes do;
* I/O faults — :func:`arm_io_actions` arms the
  :mod:`repro._failpoints` registry so the *next* ``atomic_write``
  raises ``ENOSPC`` or stalls;
* worker chaos — :func:`_chaos_cell` is a picklable task body that
  kills/hangs/errors the pool worker on the planned attempt before
  delegating to the real experiment cell, letting
  :func:`repro.runs.run_tasks` prove its retry/rebuild machinery on a
  genuine dead process rather than a mocked one.

Worker chaos must know which attempt it is on *across process
boundaries* (the killed worker's memory is gone), so attempts are
counted in marker files under a scratch directory — one ``touch`` per
attempt, immune to worker death.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Sequence, Union

from .. import _failpoints
from ..obs import runtime as obs_runtime
from .plan import ChaosAction

__all__ = ["ChaosTaskError", "flip_byte", "tear_file", "arm_io_actions"]


class ChaosTaskError(RuntimeError):
    """The error a ``task-error`` action makes the target task raise."""


def _corruption_offset(size: int, fraction: float) -> int:
    """Byte offset for a corruption at ``fraction`` of a ``size``-byte file."""
    if size <= 0:
        raise ValueError("cannot corrupt an empty file")
    return min(size - 1, max(0, int(size * fraction)))


def flip_byte(path: Union[str, Path], fraction: float = 0.5) -> int:
    """XOR one byte of ``path`` (at ``fraction`` of its length) with 0xFF.

    Returns the offset that was flipped. Simulates single-bit/byte rot;
    every artifact reader must turn this into a typed
    :class:`~repro.runs.integrity.IntegrityError`, never an uncaught
    traceback.
    """
    path = Path(path)
    size = path.stat().st_size
    offset = _corruption_offset(size, fraction)
    with open(path, "r+b") as fh:
        fh.seek(offset)
        original = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([original[0] ^ 0xFF]))
    obs_runtime.count("chaos.artifact_corruptions")
    return offset


def tear_file(path: Union[str, Path], keep_fraction: float = 0.5) -> int:
    """Truncate ``path`` to ``keep_fraction`` of its length (a torn write).

    Returns the new size. At least one byte is dropped and at least one
    kept, so the result is always a *partial* artifact rather than an
    intact or empty one.
    """
    path = Path(path)
    size = path.stat().st_size
    if size <= 1:
        raise ValueError(f"{path}: too small to tear ({size} bytes)")
    keep = min(size - 1, max(1, int(size * keep_fraction)))
    with open(path, "r+b") as fh:
        fh.truncate(keep)
    obs_runtime.count("chaos.artifact_corruptions")
    return keep


def arm_io_actions(actions: Sequence[ChaosAction]) -> None:
    """Arm :mod:`repro._failpoints` for the plan's I/O actions.

    Each ``enospc`` action makes one ``atomic_write`` raise
    ``OSError(ENOSPC)``; each ``slow-io`` action makes one stall for
    the action's ``arg`` seconds. Callers pair this with
    :func:`repro._failpoints.disarm_all` (or the ``armed`` context
    manager) so faults never leak past the chaos run.
    """
    for action in actions:
        if action.op == "enospc":
            _failpoints.arm("atomic_write", "raise-enospc", count=1)
        elif action.op == "slow-io":
            _failpoints.arm("atomic_write", "sleep", count=1, arg=action.arg)
        else:
            raise ValueError(f"not an io action: {action.op}")


# ----------------------------------------------------------------------
# worker chaos
# ----------------------------------------------------------------------


def _attempt_number(scratch_dir: Union[str, Path], key: str) -> int:
    """Record this invocation of cell ``key`` and return its 1-based attempt.

    Uses one marker file per attempt under ``scratch_dir`` because the
    counter must survive ``os._exit`` in the worker — in-memory state
    dies with the process, files do not.
    """
    scratch = Path(scratch_dir)
    scratch.mkdir(parents=True, exist_ok=True)
    attempt = 1
    while (scratch / f"{key}.attempt-{attempt}").exists():
        attempt += 1
    (scratch / f"{key}.attempt-{attempt}").touch()
    return attempt


def _chaos_cell(cfg, name, jobs, directives, scratch_dir):
    """Experiment cell wrapper that executes worker chaos, then the real work.

    Module-level (not a closure) so it pickles into pool workers.
    ``directives`` is the plan's worker-op action list for this cell;
    each fires on its ``attempt`` number, tracked via marker files in
    ``scratch_dir`` (see :func:`_attempt_number`). After any surviving
    directives, delegates to the real
    :func:`repro.experiments.runner._continuous_worker`, so the result
    is bit-identical to an undisturbed run.
    """
    from ..experiments.runner import _continuous_worker

    attempt = _attempt_number(scratch_dir, name)
    for action in directives:
        if action.attempt != attempt:
            continue
        if action.op == "kill-worker":
            # Emulate a hard worker death (OOM-killer style): no Python
            # teardown, no exception — the pool just loses the process.
            os._exit(137)
        elif action.op == "hang-worker":
            time.sleep(action.arg)
        elif action.op == "task-error":
            raise ChaosTaskError(
                f"injected failure in cell {name!r} (attempt {attempt})"
            )
    return _continuous_worker(cfg, name, jobs)
