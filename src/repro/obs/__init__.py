"""Observability for whole-trace simulations: metrics, spans, progress.

``repro.obs`` is the measurement subsystem layered over the scheduler.
It has four parts, all opt-in and all inert (one global read per hook)
when nothing is installed:

* :mod:`repro.obs.runtime` — the hot-path hooks (:func:`count`,
  :func:`timer`) and the process-global recorder / tracer / progress
  slots, installed with :func:`collecting`, :func:`tracing`, and
  :func:`progressing`. Absorbs the PR 4 perf layer.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters /
  gauges / histograms with labels, Prometheus text exposition, JSONL
  export, and :func:`parse_prometheus` for validation.
* :mod:`repro.obs.tracing` — :class:`SpanTracer` recording nested,
  deterministic-id wall-clock spans; JSONL round-trip and structural
  validation.
* :mod:`repro.obs.progress` — :class:`ProgressReporter`, a throttled
  stderr heartbeat (events / jobs / sim-clock, ETA) for runs that take
  minutes.

Offline rendering lives in :mod:`repro.obs.render`:
:func:`metrics_from_result` folds a finished run into a registry (the
``--metrics-out`` writer) and :func:`render_obs_summary` is the
``repro-sched obs render`` body. The user guide, metric catalogue, and
span taxonomy are in ``docs/observability.md``.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PromParseError,
    PromSample,
    parse_prometheus,
)
from .progress import ProgressReporter
from .render import metrics_from_result, render_obs_summary, render_perf
from .runtime import (
    PerfRecorder,
    active,
    collecting,
    count,
    peak_rss_bytes,
    progress,
    progressing,
    timer,
    tracer,
    tracing,
)
from .tracing import (
    Span,
    SpanTracer,
    load_spans,
    span_aggregates,
    spans_to_jsonl,
    validate_spans,
)

__all__ = [
    # runtime hooks
    "PerfRecorder",
    "active",
    "collecting",
    "count",
    "peak_rss_bytes",
    "timer",
    "tracer",
    "tracing",
    "progress",
    "progressing",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PromParseError",
    "PromSample",
    "parse_prometheus",
    # tracing
    "Span",
    "SpanTracer",
    "load_spans",
    "spans_to_jsonl",
    "validate_spans",
    "span_aggregates",
    # progress
    "ProgressReporter",
    # rendering
    "metrics_from_result",
    "render_obs_summary",
    "render_perf",
]
