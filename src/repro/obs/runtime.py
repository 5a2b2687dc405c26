"""The observability runtime: hot-path hooks and process-global state.

This module is what the instrumented code imports. It owns three
process-global slots, each opt-in and independently installable:

* a :class:`PerfRecorder` (via :func:`collecting`) — counters and
  re-entrant wall-clock timers, exactly the PR 4 perf layer;
* a :class:`~repro.obs.tracing.SpanTracer` (via :func:`tracing`) —
  every :func:`timer` call site also emits a nested span while a
  tracer is installed, with no call-site changes;
* a :class:`~repro.obs.progress.ProgressReporter` (via
  :func:`progressing`) — the engine and the task executor feed it
  heartbeat updates; :func:`progress` is the accessor they poll.

With nothing installed (the default), :func:`count` is one global read
plus a falsy check and :func:`timer` returns a shared do-nothing
context manager — the instrumentation costs nothing measurable, which
is what keeps the PR 4 bit-identity equivalence suites and the 2x
throughput gate indifferent to this module's existence.

Timers are *nestable*: the same timer name may be entered re-entrantly
(e.g. the adaptive allocator pricing candidates inside the cost-kernel
timer that its own callees also enter) and only the outermost entry
accumulates, so a timer never double-counts its own nested spans.
Distinct names nest freely and report inclusive time. Spans, by
contrast, record *every* entry (each re-entrant entry is its own span,
nested under the previous one) — the tracer wants the tree, the
recorder wants unskewed totals.

Perf reports are diagnostics, not results: they are intentionally kept
out of ``dump_result`` serialization so saved results stay byte-stable
across machines (CI diffs them). Engine-owned recorders *are* carried
through engine checkpoints (via :meth:`PerfRecorder.state_dict` /
:meth:`PerfRecorder.from_state`) so a resumed ``--perf`` run reports
whole-run numbers, not just the post-resume tail. See
``docs/observability.md``.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .progress import ProgressReporter
    from .tracing import SpanTracer

__all__ = [
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
]


def peak_rss_bytes() -> int:
    """Lifetime peak resident set size of this process, in bytes.

    Backed by ``getrusage(RUSAGE_SELF).ru_maxrss`` — kilobytes on Linux,
    bytes on macOS, normalized to bytes here. This is the *high-water
    mark* since process start, not current usage: it only ever grows, so
    measuring the footprint of one phase needs a fresh process (the
    memory-gate benchmark runs its ladder rungs in subprocesses for
    exactly this reason). Returns 0 where ``resource`` is unavailable.
    """
    if resource is None:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


class PerfRecorder:
    """Counter + timer accumulator for one measured span."""

    __slots__ = ("counters", "_timers", "_depth", "_t0", "_elapsed_base")

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self._timers: Dict[str, list] = {}  # name -> [seconds, outermost calls]
        self._depth: Dict[str, int] = {}
        self._t0 = time.perf_counter()
        # Elapsed seconds accumulated before _t0 — nonzero only on a
        # recorder restored from a checkpoint, so snapshot() reports
        # whole-run elapsed time across a pause/resume boundary.
        self._elapsed_base = 0.0

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (created on first use)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def timer(self, name: str) -> "_Span":
        """Accumulate wall time under ``name`` (re-entrant safe)."""
        return _Span(self, name)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict report: counters, timers, and derived rates."""
        elapsed = self._elapsed_base + (time.perf_counter() - self._t0)
        timers = {
            name: {"seconds": cell[0], "calls": cell[1]}
            for name, cell in sorted(self._timers.items())
        }
        derived: Dict[str, float] = {"elapsed_seconds": elapsed}
        rss = peak_rss_bytes()
        if rss:
            derived["peak_rss_bytes"] = float(rss)
        events = self.counters.get("engine.events")
        if events and elapsed > 0:
            derived["events_per_sec"] = events / elapsed
        jobs = self.counters.get("engine.jobs_started")
        if jobs and elapsed > 0:
            derived["jobs_per_sec"] = jobs / elapsed
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": timers,
            "derived": derived,
        }

    def state_dict(self) -> Dict[str, Any]:
        """Checkpointable state: counters, timers, and elapsed so far.

        Open timer entries are *not* carried (a checkpoint is written
        between event batches, when no hot-path timer is open), so the
        restored recorder starts with a clean depth map.
        """
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": {
                name: [cell[0], cell[1]]
                for name, cell in sorted(self._timers.items())
            },
            "elapsed_seconds": self._elapsed_base
            + (time.perf_counter() - self._t0),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "PerfRecorder":
        """Rebuild a recorder from :meth:`state_dict` (resume path)."""
        rec = cls()
        rec.counters = {str(k): v for k, v in state.get("counters", {}).items()}
        rec._timers = {
            str(name): [float(cell[0]), int(cell[1])]
            for name, cell in state.get("timers", {}).items()
        }
        rec._elapsed_base = float(state.get("elapsed_seconds", 0.0))
        return rec


class _Span:
    """One ``with``-entry of a named timer.

    A slotted object with hand-written ``__enter__``/``__exit__`` —
    timers sit on per-job hot paths, where the generator-based
    ``contextlib`` machinery costs several times more per entry. Each
    :meth:`PerfRecorder.timer` call makes a fresh span so re-entrant
    entries of the same name keep their own start times; only the
    outermost entry (depth 0) accumulates.
    """

    __slots__ = ("_rec", "_name", "_t0")

    def __init__(self, rec: PerfRecorder, name: str) -> None:
        self._rec = rec
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> None:
        rec = self._rec
        depth = rec._depth.get(self._name, 0)
        rec._depth[self._name] = depth + 1
        if depth == 0:
            self._t0 = time.perf_counter()
        return None

    def __exit__(self, *exc: object) -> bool:
        rec = self._rec
        name = self._name
        depth = rec._depth[name] - 1
        rec._depth[name] = depth
        if depth == 0:
            cell = rec._timers.setdefault(name, [0.0, 0])
            cell[0] += time.perf_counter() - self._t0
            cell[1] += 1
        return False


class _TimedSpan:
    """A :func:`timer` entry while a tracer is installed.

    Opens a tracer span and (when a recorder is also installed) the
    recorder timer for the same name, pairing enters and exits so the
    two layers never drift. Only constructed on the traced path — the
    untraced paths keep their cheaper objects.
    """

    __slots__ = ("_tracer", "_timer")

    def __init__(
        self, tracer: "SpanTracer", rec_timer: Optional[_Span]
    ) -> None:
        self._tracer = tracer
        self._timer = rec_timer

    def __enter__(self) -> None:
        if self._timer is not None:
            self._timer.__enter__()
        return None

    def __exit__(self, *exc: object) -> bool:
        self._tracer.finish()
        if self._timer is not None:
            self._timer.__exit__(*exc)
        return False


class _NullTimer:
    """Reusable do-nothing context manager for the tracing-off path.

    A plain object with empty ``__enter__``/``__exit__`` is several times
    cheaper than instantiating a generator-based context manager per
    call, and ``timer`` sits on per-job hot paths.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_TIMER = _NullTimer()

_active: Optional[PerfRecorder] = None
_tracer: Optional["SpanTracer"] = None
_progress: Optional["ProgressReporter"] = None


def active() -> Optional[PerfRecorder]:
    """The installed recorder, or ``None`` (counters/timers off)."""
    return _active


def tracer() -> Optional["SpanTracer"]:
    """The installed span tracer, or ``None`` (tracing off)."""
    return _tracer


def progress() -> Optional["ProgressReporter"]:
    """The installed progress reporter, or ``None`` (no heartbeat)."""
    return _progress


@contextmanager
def collecting(recorder: Optional[PerfRecorder] = None) -> Iterator[PerfRecorder]:
    """Install ``recorder`` (a fresh one by default) for the duration."""
    global _active
    previous = _active
    rec = recorder if recorder is not None else PerfRecorder()
    _active = rec
    try:
        yield rec
    finally:
        _active = previous


@contextmanager
def tracing(span_tracer: Optional["SpanTracer"] = None) -> Iterator["SpanTracer"]:
    """Install ``span_tracer`` (a fresh one by default) for the duration."""
    global _tracer
    from .tracing import SpanTracer

    previous = _tracer
    trc = span_tracer if span_tracer is not None else SpanTracer()
    _tracer = trc
    try:
        yield trc
    finally:
        _tracer = previous


@contextmanager
def progressing(reporter: "ProgressReporter") -> Iterator["ProgressReporter"]:
    """Install ``reporter`` for the duration (finished on exit)."""
    global _progress
    previous = _progress
    _progress = reporter
    try:
        yield reporter
    finally:
        _progress = previous
        reporter.finish()


def count(name: str, n: float = 1) -> None:
    """Bump a counter on the installed recorder; no-op when tracing is off."""
    rec = _active
    if rec is not None:
        rec.count(name, n)


def timer(name: str):
    """Time a block on the installed recorder and/or span tracer.

    A single hook with three costs: with neither layer installed it
    returns a shared no-op object; with only a recorder it returns the
    recorder's re-entrant timer; with a tracer it opens a span *now*
    (so the span tree reflects call order even before ``__enter__``)
    and pairs the recorder timer with it if one is installed too.
    """
    rec = _active
    trc = _tracer
    if trc is None:
        if rec is None:
            return _NULL_TIMER
        return rec.timer(name)
    trc.start(name)
    return _TimedSpan(trc, rec.timer(name) if rec is not None else None)
