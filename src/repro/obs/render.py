"""Turning runs into metrics, and metrics/traces into readable text.

Three layers, all offline (nothing here touches the hot paths):

* :func:`metrics_from_result` — fold a finished
  :class:`~repro.scheduler.metrics.SimulationResult` (plus its perf
  report, when collected) into a :class:`~repro.obs.metrics.MetricsRegistry`:
  the paper's §5 aggregates as gauges, per-job wait/execution/
  turnaround distributions as histograms, and every perf counter and
  timer as Prometheus counters. This is what
  ``repro-sched simulate --metrics-out`` writes.
* :func:`render_obs_summary` — the ``repro-sched obs render`` body: a
  paper-Table-style text summary of a metrics dump and/or a span
  trace, built from :func:`~repro.obs.metrics.parse_prometheus`
  samples and :func:`~repro.obs.tracing.span_aggregates`.
* :func:`render_perf` — the ``--perf`` table from PR 4, unchanged.

The metric name catalogue lives in ``docs/observability.md``; keep the
two in sync when adding families here.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .metrics import (
    DEFAULT_SECONDS_BUCKETS,
    MetricsRegistry,
    PromSample,
)
from .tracing import Span, span_aggregates

__all__ = [
    "render_perf",
    "metrics_from_result",
    "render_obs_summary",
]

#: Buckets for per-job time distributions (seconds): minutes to days.
JOB_SECONDS_BUCKETS: Tuple[float, ...] = (
    60.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0, 14400.0, 28800.0,
    86400.0, 172800.0,
)

#: Buckets for per-job Eq. 6 communication cost (dimensionless).
COST_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
)


def _perf_metric_name(name: str) -> str:
    """``engine.passes_full`` -> ``perf_engine_passes_full``."""
    return "perf_" + name.replace(".", "_").replace("-", "_")


def metrics_from_result(
    result: Any,
    allocator: Optional[str] = None,
    stats: Optional[Dict[str, Any]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Build a metrics registry from one finished simulation.

    ``result`` is a :class:`~repro.scheduler.metrics.SimulationResult`;
    ``allocator`` defaults to ``result.allocator_name`` and labels every
    family; ``stats`` may carry the engine's run stats (events
    processed, batches); pass ``registry`` to accumulate several runs
    (e.g. a sweep) into one exposition.
    """
    reg = registry if registry is not None else MetricsRegistry()
    alloc = allocator if allocator is not None else getattr(
        result, "allocator_name", "unknown"
    )
    labels = ("allocator",)

    jobs = reg.counter(
        "jobs_completed_total", "Jobs that finished in the simulation",
        labels=labels,
    )
    jobs.labels(allocator=alloc).inc(len(result.records))
    unstarted = reg.gauge(
        "jobs_unstarted", "Jobs that never started before the horizon closed",
        labels=labels,
    )
    unstarted.labels(allocator=alloc).set(len(result.unstarted))

    summary = result.summary()
    summary_help = {
        "total_execution_hours": "Summed execution time, hours (paper Table 3)",
        "total_wait_hours": "Summed wait time, hours (paper Table 3)",
        "avg_turnaround_hours": "Mean turnaround, hours (paper Fig. 9)",
        "avg_node_hours": "Mean node-hours per job (paper Fig. 9)",
        "makespan_hours": "Time to last completion, hours",
        "mean_cost_jobaware": "Mean Eq. 6 cost over comm-intensive jobs (paper Fig. 8)",
        "mean_bounded_slowdown": "Mean bounded slowdown (BSLD, tau=10s)",
        "failed_jobs": "Jobs abandoned after a failure",
        "total_requeues": "Failure-triggered restarts across all jobs",
        "wasted_node_hours": "Node-hours burned by interrupted runs",
        "goodput_node_hours": "Node-hours of completed final runs",
    }
    for key, help_text in summary_help.items():
        gauge = reg.gauge("result_" + key, help_text, labels=labels)
        gauge.labels(allocator=alloc).set(summary[key])

    for name, series, buckets in (
        ("job_wait_seconds", result.wait_times, DEFAULT_SECONDS_BUCKETS),
        ("job_execution_seconds", result.execution_times, JOB_SECONDS_BUCKETS),
        ("job_turnaround_seconds", result.turnaround_times, JOB_SECONDS_BUCKETS),
        ("job_cost_jobaware", result.costs_jobaware, COST_BUCKETS),
    ):
        hist = reg.histogram(
            name,
            f"Per-job distribution of {name.replace('_', ' ')}",
            labels=labels,
            unit="seconds" if name.endswith("seconds") else "",
            buckets=buckets,
        )
        child = hist.labels(allocator=alloc)
        for value in series:
            child.observe(float(value))

    if stats:
        for key, help_text in (
            ("events", "Engine events processed"),
            ("batches", "Engine event batches processed"),
        ):
            if key in stats:
                counter = reg.counter(
                    "engine_" + key + "_total", help_text, labels=labels
                )
                counter.labels(allocator=alloc).inc(float(stats[key]))

    perf = getattr(result, "perf", None)
    if perf:
        for name, value in perf.get("counters", {}).items():
            counter = reg.counter(
                _perf_metric_name(name) + "_total",
                f"Perf counter {name}",
                labels=labels,
            )
            counter.labels(allocator=alloc).inc(float(value))
        for name, cell in perf.get("timers", {}).items():
            base = _perf_metric_name(name)
            seconds = reg.counter(
                base + "_seconds_total",
                f"Inclusive wall seconds in timer {name}",
                labels=labels,
                unit="seconds",
            )
            seconds.labels(allocator=alloc).inc(float(cell["seconds"]))
            calls = reg.counter(
                base + "_calls_total",
                f"Outermost entries of timer {name}",
                labels=labels,
            )
            calls.labels(allocator=alloc).inc(float(cell["calls"]))
        elapsed = perf.get("derived", {}).get("elapsed_seconds")
        if elapsed is not None:
            gauge = reg.gauge(
                "run_elapsed_seconds",
                "Wall-clock seconds of the traced run",
                labels=labels,
                unit="seconds",
            )
            gauge.labels(allocator=alloc).set(float(elapsed))
        peak = perf.get("derived", {}).get("peak_rss_bytes")
        if peak is not None:
            gauge = reg.gauge(
                "process_peak_rss_bytes",
                "Peak resident set size of the measuring process",
                labels=labels,
                unit="bytes",
            )
            gauge.labels(allocator=alloc).set(float(peak))
    return reg


# ----------------------------------------------------------------------
# text rendering
# ----------------------------------------------------------------------


def render_perf(perf: Dict[str, Any]) -> str:
    """Human-readable table of a :meth:`PerfRecorder.snapshot` report."""
    lines = ["perf report", "-----------"]
    derived = perf.get("derived", {})
    for key, value in derived.items():
        lines.append(f"{key:40s} {value:14.3f}")
    counters = perf.get("counters", {})
    if counters:
        lines.append("counters:")
        for key, value in counters.items():
            lines.append(f"  {key:38s} {value:14.0f}")
    timers = perf.get("timers", {})
    if timers:
        lines.append("timers (inclusive):")
        for key, cell in timers.items():
            seconds, calls = cell["seconds"], cell["calls"]
            per_call = seconds / calls * 1e6 if calls else 0.0
            lines.append(
                f"  {key:38s} {seconds:10.3f} s  {calls:10d} calls  "
                f"{per_call:10.1f} us/call"
            )
    return "\n".join(lines)


def _label_suffix(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + rendered + "}"


def _render_metric_section(
    samples: Sequence[PromSample], types: Dict[str, str]
) -> List[str]:
    lines: List[str] = ["metrics", "-------"]
    plain = [s for s in samples if types.get(s.name) in ("counter", "gauge")]
    histograms: Dict[Tuple[str, str], Dict[str, float]] = {}
    for sample in samples:
        for family, kind in types.items():
            if kind != "histogram":
                continue
            if sample.name in (family + "_sum", family + "_count"):
                key = (
                    family,
                    _label_suffix({k: v for k, v in sample.labels.items()}),
                )
                histograms.setdefault(key, {})[
                    sample.name[len(family) + 1 :]
                ] = sample.value
    for sample in sorted(plain, key=lambda s: (s.name, sorted(s.labels.items()))):
        label = sample.name + _label_suffix(sample.labels)
        lines.append(f"  {label:58s} {sample.value:16.3f}")
    for (family, label_suffix), cells in sorted(histograms.items()):
        count = cells.get("count", 0.0)
        total = cells.get("sum", 0.0)
        mean = total / count if count else 0.0
        lines.append(
            f"  {family + label_suffix:58s} count={count:10.0f}  "
            f"mean={mean:12.3f}"
        )
    return lines


def _render_span_section(spans: Sequence[Span]) -> List[str]:
    aggregates = span_aggregates(spans)
    lines = [
        "spans",
        "-----",
        f"  {'name':38s} {'calls':>10s} {'total s':>12s} "
        f"{'self s':>12s} {'depth':>6s}",
    ]
    ordered = sorted(
        aggregates.items(), key=lambda item: -item[1]["seconds"]
    )
    for name, cell in ordered:
        lines.append(
            f"  {name:38s} {cell['calls']:10.0f} {cell['seconds']:12.4f} "
            f"{cell['self_seconds']:12.4f} {cell['max_depth']:6.0f}"
        )
    return lines


def render_obs_summary(
    samples: Optional[Sequence[PromSample]] = None,
    types: Optional[Dict[str, str]] = None,
    spans: Optional[Sequence[Span]] = None,
) -> str:
    """Paper-Table-style text summary of a metrics dump and/or a trace.

    Pass ``(samples, types)`` from
    :func:`~repro.obs.metrics.parse_prometheus` and/or ``spans`` from
    :func:`~repro.obs.tracing.load_spans`; sections render only for
    what was provided.
    """
    if samples is None and spans is None:
        raise ValueError("nothing to render: provide samples and/or spans")
    lines: List[str] = ["observability summary", "====================="]
    if samples is not None:
        lines.extend(_render_metric_section(samples, types or {}))
    if spans is not None:
        if samples is not None:
            lines.append("")
        lines.extend(_render_span_section(spans))
    return "\n".join(lines)
