"""Deterministic chaos harness for the run pipeline.

Where :mod:`repro.faults` injects failures into the *simulated*
cluster, this package injects failures into the harness itself — the
worker pools, checkpoints, journals, and result files that PR 3-5
built — and proves the robustness machinery actually recovers:

* :mod:`~repro.chaos.plan` — :class:`ChaosPlan`: a seeded, serializable
  list of :class:`ChaosAction`\\ s (kill/hang a worker on attempt N,
  flip a byte in a checkpoint, tear a journal, inject ENOSPC), in the
  :mod:`repro.faults` determinism style so every failure scenario is
  replayable from ``(seed,)`` alone.
* :mod:`~repro.chaos.inject` — the primitive injectors: byte flips and
  truncation for artifacts, failpoint arming for I/O faults, and the
  picklable chaos worker wrapper that executes kill/hang/error
  directives inside pool workers.
* :mod:`~repro.chaos.runner` — :func:`run_chaos`: executes a plan
  end-to-end over a small experiment (worker chaos through
  :func:`repro.runs.run_tasks`, artifact chaos against engine
  checkpoints/journals/results, I/O chaos through failpoints) and
  verifies that every result is **bit-identical** to the undisturbed
  baseline, with all recovery activity visible in :mod:`repro.obs`
  counters.

Exposed on the CLI as ``repro-sched chaos plan`` / ``repro-sched chaos
run``; the CI smoke step runs a seeded plan on every push. See
``docs/resilience.md``.
"""

from .inject import ChaosTaskError, flip_byte, tear_file
from .plan import (
    CHAOS_OPS,
    ChaosAction,
    ChaosPlan,
    ChaosPlanConfig,
    generate_chaos_plan,
    load_plan,
    save_plan,
)
from .runner import ChaosReport, run_chaos

__all__ = [
    "CHAOS_OPS",
    "ChaosAction",
    "ChaosPlan",
    "ChaosPlanConfig",
    "ChaosReport",
    "ChaosTaskError",
    "flip_byte",
    "generate_chaos_plan",
    "load_plan",
    "run_chaos",
    "save_plan",
    "tear_file",
]
