"""Structured metrics: a registry of counters, gauges, and histograms.

:class:`MetricsRegistry` is the exposition half of the observability
subsystem. The hot paths never touch it — they report through the
near-free hooks in :mod:`repro.obs.runtime` — and at the end of a run
the collected counters, engine stats, and per-job records are folded
into a registry (:func:`repro.obs.render.metrics_from_result`), which
then renders in two interchange formats:

* **Prometheus text exposition** (:meth:`MetricsRegistry.render_prometheus`)
  — the ``# HELP`` / ``# TYPE`` / sample-line format every scraping
  stack understands, histograms as cumulative ``_bucket`` series with
  ``_sum`` / ``_count``;
* **JSONL** (:meth:`MetricsRegistry.to_jsonl`) — one self-contained
  JSON object per metric family child, for ad-hoc analysis with
  ``jq`` / pandas.

:func:`parse_prometheus` is the matching reader: it parses (and
thereby validates) the exposition text back into samples. CI uses it
as the exposition-format check, and ``repro-sched obs render`` uses it
to summarize a dump.

Metric and label names are validated against the Prometheus grammar at
registration time, so an invalid name fails fast at the call site, not
in the scraper.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from typing import Any, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PromParseError",
    "PromSample",
    "parse_prometheus",
    "DEFAULT_SECONDS_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for second-valued observations: wide
#: exponential coverage from sub-millisecond spans to multi-day waits.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0, 3600.0, 14400.0, 86400.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labels(labels: Sequence[str]) -> Tuple[str, ...]:
    for label in labels:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name {label!r}")
    return tuple(labels)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Prometheus-style number: integral values without the trailing .0."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared family machinery: name, help, labels, children by key."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        unit: str = "",
    ) -> None:
        self.name = _check_name(name)
        self.help = help_text
        self.label_names = _check_labels(labels)
        self.unit = unit
        self._children: Dict[Tuple[str, ...], Any] = {}

    def labels(self, **labelvalues: str):
        """The child for one label combination (created on first use)."""
        if set(labelvalues) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    def _default_child(self):
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} is labelled {self.label_names}; "
                "use .labels(...)"
            )
        return self.labels()

    def _new_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _samples(self) -> Iterable[Tuple[str, Tuple[Tuple[str, str], ...], float]]:
        """Yield ``(suffixed_name, label_pairs, value)`` exposition rows."""
        raise NotImplementedError  # pragma: no cover - overridden

    def _sorted_children(self):
        return sorted(self._children.items())


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        self.value += amount


class Counter(_Metric):
    """Monotonically increasing value (events, jobs, cache hits)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled child (label-free families only)."""
        self._default_child().inc(amount)

    def _samples(self):
        for key, child in self._sorted_children():
            yield self.name, tuple(zip(self.label_names, key)), child.value


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Metric):
    """Point-in-time value that can go either way (queue depth, hours)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        """Set the unlabelled child (label-free families only)."""
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the label-free child."""
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the label-free child."""
        self._default_child().dec(amount)

    def _samples(self):
        for key, child in self._sorted_children():
            yield self.name, tuple(zip(self.label_names, key)), child.value


class _HistogramChild:
    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.total += value
        self.count += 1
        # counts are per-bucket (not cumulative); exposition cumsums.
        index = bisect.bisect_left(self.buckets, value)
        if index < len(self.counts):
            self.counts[index] += 1


class Histogram(_Metric):
    """Distribution with fixed upper-bound buckets (waits, costs, sizes)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        unit: str = "",
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labels, unit)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.buckets = bounds

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        """Observe into the unlabelled child (label-free families only)."""
        self._default_child().observe(value)

    def _samples(self):
        for key, child in self._sorted_children():
            pairs = tuple(zip(self.label_names, key))
            cumulative = 0
            for bound, count in zip(child.buckets, child.counts):
                cumulative += count
                yield (
                    self.name + "_bucket",
                    pairs + (("le", _format_value(bound)),),
                    float(cumulative),
                )
            yield self.name + "_bucket", pairs + (("le", "+Inf"),), float(child.count)
            yield self.name + "_sum", pairs, child.total
            yield self.name + "_count", pairs, float(child.count)


class MetricsRegistry:
    """A namespace of metric families with deterministic exposition.

    >>> reg = MetricsRegistry(namespace="repro")
    >>> jobs = reg.counter("jobs_total", "Jobs finished", labels=("allocator",))
    >>> jobs.labels(allocator="adaptive").inc(3)
    >>> print(reg.render_prometheus().splitlines()[2])
    repro_jobs_total{allocator="adaptive"} 3

    Families render sorted by name and children sorted by label values,
    so two registries built from the same data expose byte-identical
    text — the property the CI determinism checks lean on.
    """

    def __init__(self, namespace: str = "repro") -> None:
        if namespace and not _NAME_RE.match(namespace):
            raise ValueError(f"invalid namespace {namespace!r}")
        self.namespace = namespace
        self._families: Dict[str, _Metric] = {}

    def _full_name(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._families.get(metric.name)
        if existing is not None:
            if type(existing) is not type(metric):
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}"
                )
            return existing
        self._families[metric.name] = metric
        return metric

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = (), unit: str = ""
    ) -> Counter:
        """Register (or fetch) a counter family under the namespace."""
        return self._register(Counter(self._full_name(name), help_text, labels, unit))

    def gauge(
        self, name: str, help_text: str, labels: Sequence[str] = (), unit: str = ""
    ) -> Gauge:
        """Register (or fetch) a gauge family under the namespace."""
        return self._register(Gauge(self._full_name(name), help_text, labels, unit))

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        unit: str = "",
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        """Register (or fetch) a histogram family under the namespace."""
        return self._register(
            Histogram(self._full_name(name), help_text, labels, unit, buckets)
        )

    def families(self) -> List[_Metric]:
        """All registered families, sorted by name."""
        return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The registry as Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            help_text = family.help.replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {family.name} {help_text}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for name, pairs, value in family._samples():
                if pairs:
                    rendered = ",".join(
                        f'{label}="{_escape_label_value(val)}"'
                        for label, val in pairs
                    )
                    lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
                else:
                    lines.append(f"{name} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_jsonl(self) -> str:
        """One JSON object per family child (histograms keep structure)."""
        lines: List[str] = []
        for family in self.families():
            for key, child in family._sorted_children():
                entry: Dict[str, Any] = {
                    "name": family.name,
                    "type": family.kind,
                    "labels": dict(zip(family.label_names, key)),
                }
                if family.unit:
                    entry["unit"] = family.unit
                if family.kind == "histogram":
                    cumulative = 0
                    buckets = {}
                    for bound, count in zip(child.buckets, child.counts):
                        cumulative += count
                        buckets[_format_value(bound)] = cumulative
                    buckets["+Inf"] = child.count
                    entry["buckets"] = buckets
                    entry["sum"] = child.total
                    entry["count"] = child.count
                else:
                    entry["value"] = child.value
                lines.append(json.dumps(entry, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# parsing (the validation half)
# ----------------------------------------------------------------------


class PromParseError(ValueError):
    """Prometheus exposition text that violates the format."""


class PromSample:
    """One parsed sample line: name, label dict, float value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str], value: float) -> None:
        self.name = name
        self.labels = labels
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PromSample({self.name!r}, {self.labels!r}, {self.value!r})"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<label>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_number(text: str, lineno: int) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        raise PromParseError(f"line {lineno}: invalid sample value {text!r}")


def parse_prometheus(
    text: str,
) -> Tuple[List[PromSample], Dict[str, str]]:
    """Parse Prometheus text exposition into samples and family types.

    Returns ``(samples, types)`` where ``types`` maps family name to
    its declared ``# TYPE``. Validates sample-line syntax, label
    syntax, ``TYPE`` declarations, and (for declared histograms) that
    ``_bucket`` counts are cumulative and consistent with ``_count``.
    Raises :class:`PromParseError` on the first violation.
    """
    samples: List[PromSample] = []
    types: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) < 4:
                    raise PromParseError(f"line {lineno}: malformed TYPE comment")
                family, kind = parts[2], parts[3]
                if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise PromParseError(
                        f"line {lineno}: unknown metric type {kind!r}"
                    )
                if family in types:
                    raise PromParseError(
                        f"line {lineno}: duplicate TYPE for {family!r}"
                    )
                types[family] = kind
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise PromParseError(f"line {lineno}: malformed sample {line!r}")
        labels: Dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(label_text):
                if pair.start() != consumed:
                    break
                labels[pair.group("label")] = _unescape_label_value(
                    pair.group("value")
                )
                consumed = pair.end()
            if consumed != len(label_text):
                raise PromParseError(
                    f"line {lineno}: malformed labels {{{label_text}}}"
                )
        samples.append(
            PromSample(
                match.group("name"),
                labels,
                _parse_number(match.group("value"), lineno),
            )
        )
    _check_histograms(samples, types)
    return samples, types


def _check_histograms(samples: List[PromSample], types: Dict[str, str]) -> None:
    """Cumulative-bucket and count consistency for declared histograms."""
    buckets: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for sample in samples:
        for family, kind in types.items():
            if kind != "histogram":
                continue
            base_labels = tuple(
                sorted((k, v) for k, v in sample.labels.items() if k != "le")
            )
            if sample.name == family + "_bucket":
                if "le" not in sample.labels:
                    raise PromParseError(
                        f"histogram {family!r} bucket sample without le label"
                    )
                le = sample.labels["le"]
                bound = math.inf if le == "+Inf" else float(le)
                buckets.setdefault((family, base_labels), []).append(
                    (bound, sample.value)
                )
            elif sample.name == family + "_count":
                counts[(family, base_labels)] = sample.value
    for (family, base_labels), series in buckets.items():
        ordered = sorted(series)
        values = [count for _, count in ordered]
        if values != sorted(values):
            raise PromParseError(
                f"histogram {family!r} buckets are not cumulative"
            )
        if ordered and ordered[-1][0] != math.inf:
            raise PromParseError(f"histogram {family!r} is missing its +Inf bucket")
        total = counts.get((family, base_labels))
        if total is not None and ordered and ordered[-1][1] != total:
            raise PromParseError(
                f"histogram {family!r}: +Inf bucket {ordered[-1][1]} != "
                f"count {total}"
            )
