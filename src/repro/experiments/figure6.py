"""Figure 6 — execution-time gains across communication mixes (§6.2).

Five experiment sets vary the compute/communication split and the
collective patterns per communication-intensive job:

====  ===================================  paper mean gain (Theta)
A     67% compute, 33% RHVD                5.89%
B     50% compute, 50% RHVD                8.92%
C     30% compute, 70% RHVD                12.49%
D     50% compute, 15% RD + 35% binomial   7.94%
E     30% compute, 21% RD + 49% binomial   11.11%
====  ===================================  =======================

The qualitative claims to reproduce: gains grow with the communication
fraction (A < B < C and D < E), and RHVD-dominated mixes beat RD +
binomial at equal communication fraction (B > D, C > E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..scheduler.metrics import percent_improvement
from ..workloads.classify import EXPERIMENT_SETS
from ..analysis.ascii_plot import bar_chart
from .report import render_table
from .runner import ExperimentConfig, continuous_runs

__all__ = ["PAPER_FIGURE6_MEAN_GAIN", "Figure6Result", "run_figure6"]

#: Paper-quoted mean execution-time improvements per set, per log (%).
PAPER_FIGURE6_MEAN_GAIN: Dict[str, Dict[str, float]] = {
    "theta": {"A": 5.89, "B": 8.92, "C": 12.49, "D": 7.94, "E": 11.11},
    "intrepid": {"A": 2.59, "B": 3.92, "C": 5.49, "D": 3.71, "E": 5.19},
    "mira": {"A": 7.20, "B": 10.90, "C": 15.27, "D": 6.68, "E": 9.36},
}

SET_ORDER = ("A", "B", "C", "D", "E")


@dataclass
class Figure6Result:
    """Mix-sweep (§6.2) improvements per pattern set, per allocator."""
    log: str
    #: {set: {allocator: % exec improvement over default}}
    improvements: Dict[str, Dict[str, float]]

    def mean_gain(self, set_name: str) -> float:
        """Mean improvement over the three job-aware allocators."""
        vals = [
            v
            for k, v in self.improvements[set_name].items()
            if k != "default"
        ]
        return sum(vals) / len(vals) if vals else 0.0

    def render(self) -> str:
        """ASCII table of percent improvements per pattern set."""
        headers = ["set", "greedy %", "balanced %", "adaptive %", "mean %", "paper mean %"]
        paper = PAPER_FIGURE6_MEAN_GAIN.get(self.log, {})
        rows = []
        for s in SET_ORDER:
            if s not in self.improvements:
                continue
            imp = self.improvements[s]
            rows.append(
                [
                    s,
                    imp.get("greedy", 0.0),
                    imp.get("balanced", 0.0),
                    imp.get("adaptive", 0.0),
                    self.mean_gain(s),
                    paper.get(s, "-"),
                ]
            )
        table = render_table(
            headers,
            rows,
            title=f"Figure 6: % execution-time reduction by mix ({self.log})",
        )
        bars = bar_chart(
            {s: self.mean_gain(s) for s in SET_ORDER if s in self.improvements},
            title="mean % reduction per experiment set:",
            unit="%",
        )
        return f"{table}\n{bars}"


def run_figure6(
    *,
    log: str = "theta",
    n_jobs: int = 1000,
    percent_comm: float = 90.0,
    seed: int = 0,
    sets: Tuple[str, ...] = SET_ORDER,
) -> Figure6Result:
    """Run sets A-E on one log; % improvements are over total exec hours."""
    improvements: Dict[str, Dict[str, float]] = {}
    for set_name in sets:
        mix = EXPERIMENT_SETS[set_name]
        cfg = ExperimentConfig(
            log=log,
            n_jobs=n_jobs,
            percent_comm=percent_comm,
            mix=mix,
            seed=seed,
        )
        results = continuous_runs(cfg)
        base = results["default"].total_execution_hours
        improvements[set_name] = {
            name: percent_improvement(base, res.total_execution_hours)
            for name, res in results.items()
        }
    return Figure6Result(log=log, improvements=improvements)
