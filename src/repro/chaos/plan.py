"""Seeded, serializable chaos plans.

A :class:`ChaosPlan` is to harness failures what a fault trace is to
cluster failures (:mod:`repro.faults`): a frozen, replayable schedule.
:func:`generate_chaos_plan` follows the same determinism discipline as
``generate_faults`` — a frozen config dataclass, one
``np.random.default_rng(seed)``, and nothing else feeding the draw —
so a plan is reproduced exactly by its config, and a plan file replays
a scenario on any machine.

The generated plan always contains one of every failure class the
acceptance harness must prove recovery from (a worker kill, a checkpoint
tear, checkpoint/journal/result byte flips, a task error, ENOSPC, slow
I/O); the seed varies only the *parameters* — which byte flips, where
files tear, how long hangs last. Coverage is structural, randomness is
parametric: CI smoke runs can never lose a failure class to an unlucky
seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

import numpy as np

from ..runs.atomic import atomic_write_json

__all__ = [
    "CHAOS_OPS",
    "CHAOS_PLAN_VERSION",
    "ChaosAction",
    "ChaosPlan",
    "ChaosPlanConfig",
    "generate_chaos_plan",
    "load_plan",
    "save_plan",
]

CHAOS_PLAN_VERSION = 1

#: every failure the harness can inject:
#: ``kill-worker``  — the worker process running the target task calls
#:                    ``os._exit`` mid-cell (attempt ``attempt``).
#: ``hang-worker``  — the worker sleeps ``arg`` seconds before working.
#: ``task-error``   — the task raises :class:`ChaosTaskError`.
#: ``flip-byte``    — XOR one byte of the target artifact (at the
#:                    ``arg`` fraction of the file).
#: ``tear-file``    — truncate the target artifact to the ``arg``
#:                    fraction of its length (a torn write).
#: ``enospc``       — the next ``atomic_write`` raises ``ENOSPC``.
#: ``slow-io``      — ``atomic_write`` sleeps ``arg`` seconds.
CHAOS_OPS = (
    "kill-worker",
    "hang-worker",
    "task-error",
    "flip-byte",
    "tear-file",
    "enospc",
    "slow-io",
)

_WORKER_OPS = ("kill-worker", "hang-worker", "task-error")
_ARTIFACT_OPS = ("flip-byte", "tear-file")
_IO_OPS = ("enospc", "slow-io")
_ARTIFACTS = ("checkpoint", "journal", "result")


@dataclass(frozen=True)
class ChaosAction:
    """One injected failure.

    ``target`` scopes the action: ``task:<key>`` for worker ops (the
    executor cell to hit), ``artifact:<checkpoint|journal|result>`` for
    file-corruption ops, ``io:atomic_write`` for failpoint ops.
    ``attempt`` is which attempt of the task the failure hits (worker
    ops only); ``arg`` is the op's parameter — flip offset fraction,
    tear keep-fraction, or sleep seconds.
    """

    op: str
    target: str
    attempt: int = 1
    arg: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in CHAOS_OPS:
            raise ValueError(f"unknown chaos op {self.op!r}; known: {list(CHAOS_OPS)}")
        scope = self.target.split(":", 1)[0]
        expected = (
            "task"
            if self.op in _WORKER_OPS
            else "artifact" if self.op in _ARTIFACT_OPS else "io"
        )
        if scope != expected or ":" not in self.target:
            raise ValueError(
                f"op {self.op!r} needs a {expected}:<name> target, "
                f"got {self.target!r}"
            )
        if self.op in _ARTIFACT_OPS and self.target.split(":", 1)[1] not in _ARTIFACTS:
            raise ValueError(
                f"artifact target must be one of {list(_ARTIFACTS)}, "
                f"got {self.target!r}"
            )
        if self.attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {self.attempt}")
        if not 0.0 <= self.arg <= 60.0:
            raise ValueError(f"arg must be in [0, 60], got {self.arg}")


@dataclass(frozen=True)
class ChaosPlanConfig:
    """Knobs for :func:`generate_chaos_plan`.

    ``task_keys`` are the executor cells worker chaos is aimed at (the
    first gets the kill, the second the injected error, the last the
    hang); artifact and I/O chaos are target-independent.
    """

    seed: int = 0
    task_keys: Tuple[str, ...] = ("default", "balanced")
    hang_seconds: float = 0.2
    slow_io_seconds: float = 0.05

    def __post_init__(self) -> None:
        if not self.task_keys:
            raise ValueError("task_keys must name at least one executor cell")
        if self.hang_seconds < 0:
            raise ValueError(f"hang_seconds must be >= 0, got {self.hang_seconds}")
        if self.slow_io_seconds < 0:
            raise ValueError(
                f"slow_io_seconds must be >= 0, got {self.slow_io_seconds}"
            )


@dataclass(frozen=True)
class ChaosPlan:
    """A replayable schedule of harness failures."""

    seed: int
    actions: Tuple[ChaosAction, ...] = ()

    def for_task(self, key: str) -> List[ChaosAction]:
        """Worker-op actions aimed at executor cell ``key``."""
        return [a for a in self.actions if a.target == f"task:{key}"]

    def for_artifact(self, name: str) -> List[ChaosAction]:
        """File-corruption actions aimed at artifact ``name``."""
        return [a for a in self.actions if a.target == f"artifact:{name}"]

    def io_actions(self) -> List[ChaosAction]:
        """Failpoint actions (ENOSPC / slow I/O)."""
        return [a for a in self.actions if a.op in _IO_OPS]


def generate_chaos_plan(config: ChaosPlanConfig) -> ChaosPlan:
    """Generate the canonical failure battery with seeded parameters.

    The action *set* is fixed (see module docstring); the rng draws
    only each action's parameters, so every seed covers every failure
    class and two calls with the same config are identical.
    """
    rng = np.random.default_rng(config.seed)

    def fraction() -> float:
        # Flip/tear positions stay inside (0.05, 0.95): the extreme
        # edges of a file can coincide with trailing newlines whose
        # corruption is still *detected* but makes poorer test signal.
        return float(rng.uniform(0.05, 0.95))

    keys = config.task_keys
    actions: List[ChaosAction] = [
        ChaosAction("kill-worker", f"task:{keys[0]}", attempt=1),
        ChaosAction(
            "task-error", f"task:{keys[min(1, len(keys) - 1)]}", attempt=1
        ),
        ChaosAction(
            "hang-worker", f"task:{keys[-1]}", attempt=2, arg=config.hang_seconds
        ),
        ChaosAction("tear-file", "artifact:checkpoint", arg=fraction()),
        ChaosAction("flip-byte", "artifact:checkpoint", arg=fraction()),
        ChaosAction("flip-byte", "artifact:journal", arg=fraction()),
        ChaosAction("flip-byte", "artifact:result", arg=fraction()),
        ChaosAction("enospc", "io:atomic_write"),
        ChaosAction("slow-io", "io:atomic_write", arg=config.slow_io_seconds),
    ]
    return ChaosPlan(seed=config.seed, actions=tuple(actions))


# ----------------------------------------------------------------------
# (de)serialization
# ----------------------------------------------------------------------


def plan_to_dict(plan: ChaosPlan) -> Dict[str, Any]:
    """Plain-JSON representation of a plan."""
    return {
        "kind": "chaos-plan",
        "chaos_version": CHAOS_PLAN_VERSION,
        "seed": plan.seed,
        "actions": [
            {
                "op": a.op,
                "target": a.target,
                "attempt": a.attempt,
                "arg": a.arg,
            }
            for a in plan.actions
        ],
    }


def plan_from_dict(data: Dict[str, Any]) -> ChaosPlan:
    """Inverse of :func:`plan_to_dict`; validates kind and version."""
    if not isinstance(data, dict) or data.get("kind") != "chaos-plan":
        raise ValueError(f"not a chaos plan: kind={data.get('kind')!r}")
    version = data.get("chaos_version")
    if version != CHAOS_PLAN_VERSION:
        raise ValueError(
            f"unsupported chaos plan version {version!r} "
            f"(this build reads {CHAOS_PLAN_VERSION})"
        )
    return ChaosPlan(
        seed=int(data["seed"]),
        actions=tuple(
            ChaosAction(
                op=str(a["op"]),
                target=str(a["target"]),
                attempt=int(a.get("attempt", 1)),
                arg=float(a.get("arg", 0.0)),
            )
            for a in data["actions"]
        ),
    )


def save_plan(plan: ChaosPlan, path: Union[str, Path]) -> None:
    """Atomically write a plan as JSON."""
    atomic_write_json(path, plan_to_dict(plan))


def load_plan(path: Union[str, Path]) -> ChaosPlan:
    """Read a plan written by :func:`save_plan`."""
    with open(path) as fh:
        return plan_from_dict(json.load(fh))
