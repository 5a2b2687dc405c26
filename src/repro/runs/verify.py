"""Deterministic replay verification of journaled runs.

The whole reproduction rests on one promise: every harness task is a
pure function of its spec, so re-running it — any day, any machine
count, any retry history — produces the bit-identical result. This
module *checks* that promise: it re-executes a (sampled) subset of a
journal's completed tasks and compares the fresh digest against the
journaled one. A mismatch means nondeterminism crept into the simulator
(an unseeded RNG, dict-order dependence, a float reassociation) — the
class of regression no unit test reliably catches.

Exposed on the CLI as ``repro-sched verify-run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .digest import digest_obj, result_digest
from .journal import JournalData, load_journal

__all__ = ["VerifyReport", "replay_task", "verify_journal"]


@dataclass
class VerifyReport:
    """Outcome of one verification pass over a journal."""

    journal_path: str
    run_type: str
    total_completed: int
    checked: List[str] = field(default_factory=list)
    #: key -> (journaled digest, recomputed digest)
    mismatched: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: declared tasks that never produced a result (informational)
    unfinished: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every replayed task matched its journaled digest."""
        return not self.mismatched

    def render(self) -> str:
        """Human-readable verification report (one line per drift)."""
        lines = [
            f"journal    : {self.journal_path}",
            f"run type   : {self.run_type}",
            f"completed  : {self.total_completed}",
            f"verified   : {len(self.checked)}",
            f"mismatched : {len(self.mismatched)}",
        ]
        if self.unfinished:
            lines.append(f"unfinished : {len(self.unfinished)} {self.unfinished}")
        for key, (expected, got) in self.mismatched.items():
            lines.append(f"MISMATCH {key}: journal {expected} != replay {got}")
        if self.ok:
            lines.append("OK: replayed tasks are bit-identical to the journal")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# replay dispatch — experiment imports are lazy (the experiments layer
# already imports this package's executor).
# ----------------------------------------------------------------------


def _context_jobs(context: Dict, cfg) -> List:
    from ..experiments.runner import prepare_jobs
    from ..scheduler.serialize import job_from_dict

    if context.get("jobs") is not None:
        return [job_from_dict(j) for j in context["jobs"]]
    return prepare_jobs(cfg)


def _replay_continuous(context: Dict, spec: Dict) -> str:
    from ..experiments.runner import _continuous_worker, config_from_dict

    cfg = config_from_dict(context["config"])
    jobs = _context_jobs(context, cfg)
    result = _continuous_worker(cfg, spec["allocator"], jobs)
    return result_digest(result)


def _replay_individual(context: Dict, spec: Dict) -> str:
    from ..experiments.runner import (
        _individual_setup,
        _individual_worker,
        config_from_dict,
        outcomes_digest,
    )

    cfg = config_from_dict(context["config"])
    jobs = _context_jobs(context, cfg)
    state, sampled, defaults = _individual_setup(
        cfg,
        n_samples=int(context["n_samples"]),
        target_occupancy=float(context["target_occupancy"]),
        jobs=jobs,
    )
    outcomes = _individual_worker(
        state, sampled, defaults, spec["allocator"], cfg.cost_model
    )
    return outcomes_digest(outcomes)


def _replay_sweep(context: Dict, spec: Dict) -> str:
    from ..experiments.sweeps import _sweep_point_worker, point_config

    cfg = point_config(spec["point"], tuple(spec["allocators"]))
    results = _sweep_point_worker(cfg)
    return digest_obj({name: result_digest(res) for name, res in results.items()})


_REPLAYERS = {
    "continuous_runs": _replay_continuous,
    "individual_runs": _replay_individual,
    "sweep": _replay_sweep,
}


def replay_task(data: JournalData, key: str) -> str:
    """Re-execute one journaled task from scratch; returns its digest."""
    replayer = _REPLAYERS.get(data.run_type)
    if replayer is None:
        raise ValueError(
            f"cannot replay run type {data.run_type!r}; "
            f"known: {sorted(_REPLAYERS)}"
        )
    if key not in data.tasks:
        raise KeyError(f"journal has no task {key!r}")
    return replayer(data.context, data.tasks[key])


def verify_journal(
    path: Union[str, Path],
    *,
    sample: Optional[int] = None,
    seed: int = 0,
) -> VerifyReport:
    """Replay ``sample`` journaled tasks and diff their digests.

    ``sample=None`` replays every completed task; otherwise a seeded
    uniform draw of ``sample`` of them (deterministic per seed). Tasks
    without a recorded result (crashed cells of a partial run) are
    listed as unfinished, not failures.
    """
    data = load_journal(path)
    completed = data.completed_keys()
    report = VerifyReport(
        journal_path=str(path),
        run_type=data.run_type,
        total_completed=len(completed),
        unfinished=data.missing_keys(),
    )
    chosen = completed
    if sample is not None and sample < len(completed):
        if sample < 0:
            raise ValueError(f"sample must be >= 0, got {sample}")
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(completed), size=sample, replace=False)
        chosen = [completed[i] for i in sorted(idx)]
    for key in chosen:
        fresh = replay_task(data, key)
        report.checked.append(key)
        if fresh != data.digests[key]:
            report.mismatched[key] = (data.digests[key], fresh)
    return report
