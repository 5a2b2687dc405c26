"""Allocator tournament: every allocator × workloads × fault regimes.

The paper compares four allocators on three logs with no failures; the
zoo (``docs/allocators.md``) holds many more, and the PR 2 fault model
supplies adversarial conditions. This harness runs the full cross
product — each *cell* is one continuous replay of one workload under
one fault regime with one allocator — fans the cells out through the
resilient executor (:func:`repro.runs.run_tasks`, the same ``workers=``
machinery the continuous runs and sweeps ride), and distils a ranked
report: per-allocator mean Eq. 6 communication cost, p95 wait, wasted
node-hours, and wall-clock runtime, aggregated into standings by mean
per-cell rank.

Everything except the wall-clock timings is deterministic: workloads
and fault traces are seeded, cells are pure functions of their spec,
and the report's markdown/JSON renderings take ``include_timing=False``
to produce byte-identical output across runs — the form the golden
test and the journal digests use.

Exposed on the CLI as ``repro-sched tournament``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..allocation.registry import allocator_names, get_allocator
from ..cluster.job import Job
from ..faults.events import FaultEvent
from ..faults.generator import FaultGeneratorConfig, generate_faults
from ..obs import runtime as obs_runtime
from ..obs.metrics import MetricsRegistry
from ..obs.progress import ProgressReporter
from ..runs import TaskSpec, digest_obj
from ..scheduler.engine import SchedulerEngine
from ..workloads.classify import assign_kinds, single_pattern_mix
from ..workloads.logs import LOG_SPECS, generate_log
from ..workloads.synthetic import stream_trace
from .report import render_table
from .runner import ExperimentConfig, _fan_out

__all__ = [
    "FaultRegime",
    "FAULT_REGIMES",
    "TOURNAMENT_WORKLOADS",
    "TournamentCell",
    "TournamentReport",
    "run_tournament",
]

#: seconds of fault-generation tail past the last job submission
_HORIZON_TAIL = 86400.0

#: the six summary metrics every cell carries into the report
_CELL_METRICS = (
    "mean_cost_jobaware",
    "p95_wait_hours",
    "total_wait_hours",
    "wasted_node_hours",
    "mean_bounded_slowdown",
    "failed_jobs",
)


@dataclass(frozen=True)
class FaultRegime:
    """One named failure environment of the tournament cross product.

    Attributes
    ----------
    name:
        Regime key (``--regimes`` accepts these).
    rate:
        Expected failures per simulated hour, cluster-wide; 0 disables
        fault injection entirely.
    switch_fraction:
        Probability a failure takes a whole leaf switch down instead of
        a single node.
    mean_downtime:
        Mean seconds a failed node/switch stays down.
    """

    name: str
    rate: float
    switch_fraction: float
    mean_downtime: float = 1800.0

    def events(self, topology, horizon: float, seed: int) -> Tuple[FaultEvent, ...]:
        """Seeded fault trace of this regime over ``[0, horizon)`` seconds."""
        if self.rate == 0.0:
            return ()
        config = FaultGeneratorConfig(
            rate=self.rate,
            horizon=horizon,
            seed=seed,
            mean_downtime=self.mean_downtime,
            switch_fraction=self.switch_fraction,
        )
        return tuple(generate_faults(topology, config))


#: the three stock regimes the issue's acceptance grid names
FAULT_REGIMES: Dict[str, FaultRegime] = {
    "none": FaultRegime("none", rate=0.0, switch_fraction=0.0),
    "node-faults": FaultRegime("node-faults", rate=2.0, switch_fraction=0.0),
    "switch-faults": FaultRegime("switch-faults", rate=0.5, switch_fraction=1.0),
}


def _paper_workload(log: str) -> Callable[[int, int], Tuple[str, List[Job]]]:
    """Builder for one of the paper's logs (headline comm mix)."""

    def build(n_jobs: int, seed: int) -> Tuple[str, List[Job]]:
        trace = generate_log(LOG_SPECS[log], n_jobs, seed=seed + 1)
        jobs = assign_kinds(
            trace,
            percent_comm=90.0,
            mix=single_pattern_mix("rhvd"),
            seed=seed + 2,
        )
        return log, jobs

    return build


def _stream_workload(n_jobs: int, seed: int) -> Tuple[str, List[Job]]:
    """Synthetic ``stream_trace`` workload on the theta topology."""
    trace = list(stream_trace(n_jobs, seed=seed + 1, max_nodes=512))
    jobs = assign_kinds(
        trace,
        percent_comm=90.0,
        mix=single_pattern_mix("rhvd"),
        seed=seed + 2,
    )
    return "theta", jobs


#: workload name -> builder(n_jobs, seed) -> (log/topology name, labelled jobs)
TOURNAMENT_WORKLOADS: Dict[str, Callable[[int, int], Tuple[str, List[Job]]]] = {
    "theta": _paper_workload("theta"),
    "intrepid": _paper_workload("intrepid"),
    "mira": _paper_workload("mira"),
    "stream": _stream_workload,
}


@dataclass(frozen=True)
class TournamentCell:
    """One (workload, regime, allocator) replay's distilled outcome."""

    workload: str
    regime: str
    allocator: str
    metrics: Dict[str, float]
    seconds: float

    def row(self, include_timing: bool = True) -> List[object]:
        """Detail-table row (report rendering)."""
        row: List[object] = [self.allocator]
        row.extend(self.metrics[m] for m in _CELL_METRICS)
        if include_timing:
            row.append(self.seconds)
        return row


def _cell_digest(payload: Dict[str, Any]) -> str:
    """Journal digest of one cell — wall-clock timing excluded."""
    return digest_obj({k: v for k, v in payload.items() if k != "seconds"})


def _tournament_cell(
    cfg: ExperimentConfig, spec: str, jobs: List[Job]
) -> Dict[str, Any]:
    """Run one cell (module-level so it pickles into pool workers)."""
    start = time.perf_counter()
    engine = SchedulerEngine(cfg.topology(), spec, cfg.engine_config())
    result = engine.run(jobs, faults=cfg.faults)
    seconds = time.perf_counter() - start
    summary = result.summary()
    waits = result.wait_times
    p95 = float(np.percentile(waits, 95) / 3600.0) if waits.size else 0.0
    metrics = {
        "mean_cost_jobaware": float(summary["mean_cost_jobaware"]),
        "p95_wait_hours": p95,
        "total_wait_hours": float(summary["total_wait_hours"]),
        "wasted_node_hours": float(summary["wasted_node_hours"]),
        "mean_bounded_slowdown": float(summary["mean_bounded_slowdown"]),
        "failed_jobs": float(summary["failed_jobs"]),
    }
    return {"metrics": metrics, "seconds": seconds}


@dataclass
class TournamentReport:
    """Ranked cross-product results with markdown/JSON renderings.

    ``standings`` orders allocators by mean per-cell rank (rank 1 =
    cheapest Eq. 6 mean communication cost within its (workload,
    regime) group; ties broken by allocator name). ``missing`` names
    cells that exhausted their attempts under ``on_task_error="skip"``.
    """

    allocators: List[str]
    workloads: List[str]
    regimes: List[str]
    n_jobs: int
    seed: int
    cells: List[TournamentCell]
    missing: Dict[str, str] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every cell of the cross product produced a result."""
        return not self.missing

    def _groups(self) -> Dict[Tuple[str, str], List[TournamentCell]]:
        groups: Dict[Tuple[str, str], List[TournamentCell]] = {}
        for cell in self.cells:
            groups.setdefault((cell.workload, cell.regime), []).append(cell)
        return groups

    def standings(self) -> List[Dict[str, object]]:
        """Aggregate rows, best allocator first.

        Per allocator: mean within-group rank by mean communication
        cost, then means of every cell metric and the total runtime.
        """
        ranks: Dict[str, List[int]] = {a: [] for a in self.allocators}
        for group in self._groups().values():
            ordered = sorted(
                group, key=lambda c: (c.metrics["mean_cost_jobaware"], c.allocator)
            )
            for position, cell in enumerate(ordered, start=1):
                ranks[cell.allocator].append(position)
        rows: List[Dict[str, object]] = []
        for name in self.allocators:
            mine = [c for c in self.cells if c.allocator == name]
            if not mine:
                continue
            row: Dict[str, object] = {
                "allocator": name,
                "mean_rank": float(np.mean(ranks[name])) if ranks[name] else 0.0,
                "cells": len(mine),
                "seconds": float(sum(c.seconds for c in mine)),
            }
            for metric in _CELL_METRICS:
                row[metric] = float(np.mean([c.metrics[metric] for c in mine]))
            rows.append(row)
        rows.sort(key=lambda r: (r["mean_rank"], r["allocator"]))
        return rows

    def to_dict(self, include_timing: bool = True) -> Dict[str, object]:
        """Plain-JSON form (``include_timing=False`` is byte-stable)."""
        def cell_dict(cell: TournamentCell) -> Dict[str, object]:
            data: Dict[str, object] = {
                "workload": cell.workload,
                "regime": cell.regime,
                "allocator": cell.allocator,
                "metrics": dict(cell.metrics),
            }
            if include_timing:
                data["seconds"] = cell.seconds
            return data

        standings = self.standings()
        if not include_timing:
            standings = [
                {k: v for k, v in row.items() if k != "seconds"}
                for row in standings
            ]
        return {
            "config": {
                "allocators": list(self.allocators),
                "workloads": list(self.workloads),
                "regimes": list(self.regimes),
                "n_jobs": self.n_jobs,
                "seed": self.seed,
            },
            "standings": standings,
            "cells": [cell_dict(c) for c in self.cells],
            "missing": dict(self.missing),
        }

    def to_json(self, include_timing: bool = True) -> str:
        """Canonical JSON rendering (sorted keys, trailing newline)."""
        return json.dumps(
            self.to_dict(include_timing=include_timing), indent=2, sort_keys=True
        ) + "\n"

    def render_markdown(self, include_timing: bool = True) -> str:
        """Standings plus one detail table per (workload, regime) group."""
        headers = [
            "allocator",
            "mean cost",
            "p95 wait (h)",
            "wait (h)",
            "wasted nh",
            "slowdown",
            "failed",
        ]
        out = [
            "# Allocator tournament",
            "",
            f"{len(self.allocators)} allocators x {len(self.workloads)} "
            f"workloads x {len(self.regimes)} fault regimes, "
            f"{self.n_jobs} jobs per cell, seed {self.seed}.",
            "",
        ]
        standing_headers = ["#", "allocator", "mean rank", "cells"] + headers[1:]
        if include_timing:
            standing_headers.append("runtime (s)")
        standing_rows = []
        for position, row in enumerate(self.standings(), start=1):
            rendered = [position, row["allocator"], row["mean_rank"], row["cells"]]
            rendered.extend(row[m] for m in _CELL_METRICS)
            if include_timing:
                rendered.append(row["seconds"])
            standing_rows.append(rendered)
        out.append(
            render_table(standing_headers, standing_rows, title="Standings")
        )
        detail_headers = list(headers)
        if include_timing:
            detail_headers.append("runtime (s)")
        for (workload, regime), group in sorted(self._groups().items()):
            ordered = sorted(
                group, key=lambda c: (c.metrics["mean_cost_jobaware"], c.allocator)
            )
            out.append("")
            out.append(
                render_table(
                    detail_headers,
                    [c.row(include_timing) for c in ordered],
                    title=f"{workload} / {regime}",
                )
            )
        if self.missing:
            out.append("")
            out.append("## Missing cells")
            out.append("")
            for key in sorted(self.missing):
                out.append(f"- `{key}`: {self.missing[key]}")
        return "\n".join(out).rstrip() + "\n"


def _validate_inputs(
    allocators: Sequence[str], workloads: Sequence[str], regimes: Sequence[str]
) -> None:
    """Fail fast with the CLI-friendly errors (KeyError/ValueError)."""
    for spec in allocators:
        get_allocator(spec)  # raises KeyError/ValueError with context
    for workload in workloads:
        if workload not in TOURNAMENT_WORKLOADS:
            raise KeyError(
                f"unknown workload {workload!r}; known: "
                f"{sorted(TOURNAMENT_WORKLOADS)}"
            )
    for regime in regimes:
        if regime not in FAULT_REGIMES:
            raise KeyError(
                f"unknown fault regime {regime!r}; known: {sorted(FAULT_REGIMES)}"
            )
    seen: Dict[str, str] = {}
    for spec in allocators:
        if spec in seen:
            raise ValueError(f"duplicate allocator spec {spec!r}")
        seen[spec] = spec


def run_tournament(
    allocators: Optional[Sequence[str]] = None,
    *,
    workloads: Sequence[str] = ("theta", "stream"),
    regimes: Sequence[str] = ("none", "node-faults", "switch-faults"),
    n_jobs: int = 300,
    seed: int = 0,
    workers: Optional[int] = None,
    max_retries: int = 0,
    on_task_error: str = "retry",
    journal: Optional[Union[str, "os.PathLike"]] = None,
    progress: Optional[ProgressReporter] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> TournamentReport:
    """Run the full allocator × workload × fault-regime cross product.

    ``allocators`` defaults to every registered name; parameterized
    specs (``"sa:iters=60"``) are accepted and keep their spec string as
    the report label, so the same family can enter the bracket several
    times with different tunings. Each cell replays the same seeded
    jobs under the same seeded fault trace, so two tournaments with the
    same arguments are identical except wall-clock timings.

    ``workers``/``max_retries``/``on_task_error``/``journal`` route the
    cells through :func:`repro.runs.run_tasks` (the sweep machinery):
    parallel fan-out, retries with backoff, journaled attempts, and —
    under ``on_task_error="skip"`` — a report whose ``missing`` maps
    abandoned cells to their last error instead of failing the bracket.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) receives
    per-allocator counters: ``tournament_cells_total`` and
    ``tournament_cell_seconds_total`` labelled by allocator.
    """
    allocator_list = list(allocators) if allocators else allocator_names()
    workload_list = list(workloads)
    regime_list = list(regimes)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    _validate_inputs(allocator_list, workload_list, regime_list)
    if progress is None:
        progress = obs_runtime.progress()

    # Build each workload once; fault traces once per (workload, regime).
    built: Dict[str, Tuple[str, List[Job]]] = {
        w: TOURNAMENT_WORKLOADS[w](n_jobs, seed) for w in workload_list
    }
    tasks: List[TaskSpec] = []
    for workload in workload_list:
        log, jobs = built[workload]
        topology = LOG_SPECS[log].topology()
        horizon = (
            max(j.submit_time for j in jobs) + _HORIZON_TAIL if jobs else 0.0
        )
        for regime_name in regime_list:
            regime = FAULT_REGIMES[regime_name]
            faults = regime.events(topology, horizon, seed + 7)
            for spec in allocator_list:
                cfg = ExperimentConfig(
                    log=log,
                    n_jobs=n_jobs,
                    allocators=(spec,),
                    seed=seed,
                    faults=faults,
                    interrupt_policy="requeue",
                )
                tasks.append(
                    TaskSpec(
                        key=f"{workload}/{regime_name}/{spec}",
                        fn=_tournament_cell,
                        args=(cfg, spec, jobs),
                        spec={
                            "workload": workload,
                            "regime": regime_name,
                            "allocator": spec,
                        },
                    )
                )

    batch = _fan_out(
        tasks,
        run_type="tournament",
        context=lambda: {
            "allocators": allocator_list,
            "workloads": workload_list,
            "regimes": regime_list,
            "n_jobs": n_jobs,
            "seed": seed,
        },
        workers=workers,
        max_retries=max_retries,
        on_task_error=on_task_error,
        journal=journal,
        task_timeout=None,
        digest=_cell_digest,
        progress=progress,
    )

    cells: List[TournamentCell] = []
    for task in tasks:
        payload = batch.results.get(task.key)
        if payload is None:
            continue
        cells.append(
            TournamentCell(
                workload=task.spec["workload"],
                regime=task.spec["regime"],
                allocator=task.spec["allocator"],
                metrics=dict(payload["metrics"]),
                seconds=float(payload["seconds"]),
            )
        )
    missing = {**batch.missing, **batch.quarantined}

    if metrics is not None:
        cells_total = metrics.counter(
            "tournament_cells_total",
            "tournament cells completed per allocator",
            labels=("allocator",),
        )
        cell_seconds = metrics.counter(
            "tournament_cell_seconds_total",
            "wall-clock seconds spent in tournament cells per allocator",
            labels=("allocator",),
            unit="seconds",
        )
        for cell in cells:
            cells_total.labels(allocator=cell.allocator).inc()
            cell_seconds.labels(allocator=cell.allocator).inc(cell.seconds)

    return TournamentReport(
        allocators=allocator_list,
        workloads=workload_list,
        regimes=regime_list,
        n_jobs=n_jobs,
        seed=seed,
        cells=cells,
        missing=missing,
    )
