"""Per-layer time ledger, measured from outside the program.

The ledger wraps the public entry points of each ``repro`` module inside
the benchmark's own process and keeps a span stack, so every layer gets
its *self* time (its spans minus the spans of the layers it called).
``scheduler.engine`` is the residual: the traced wall time minus every
other layer's self time, so the shares of one run sum to exactly 1.

No ``repro`` source changes: :meth:`Ledger.install` patches class and
module attributes and :meth:`Ledger.uninstall` restores them.

Spans (layer, start, end, parent, job id) are kept for the first
``span_jobs`` job starts only, so memory stays bounded at any trace
length; the per-layer totals always cover the whole run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

#: Layers timed by wrappers, in report order. ``runs`` is the sweep call
#: itself (fan-out, per-cell set-up, result collection); it is only on
#: the path of ``sweep-fanout``.
LAYERS = (
    "workloads",
    "scheduler.events",
    "scheduler.queue_policy",
    "allocation.select",
    "allocation.counterfactual",
    "cluster.state.mutate",
    "cluster.state.overlay",
    "cost.eq6",
    "cost.eq7",
    "runs",
)
#: The residual layer: the engine loop plus everything no wrapper covers.
ENGINE = "scheduler.engine"

SELECT = "allocation.select"
COUNTERFACTUAL = "allocation.counterfactual"


class Ledger:
    """Self time and call counts per layer, plus the first spans of a run."""

    def __init__(self, span_jobs: int = 2000) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: spans entered per layer (nested ones included)
        self.layer_calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: calls per wrapped entry point (``Class.method``)
        self.calls: Dict[str, int] = {}
        #: the engine whose ``run`` is in progress (tells the run's own
        #: allocator apart from the default-allocator counterfactual)
        self.engine: Any = None
        self.span_jobs = span_jobs
        self.jobs_started = 0
        self.spans: List[list] = []
        self.epoch = time.perf_counter()
        self._stack: List[list] = []
        self._undo: List[tuple] = []

    # ------------------------------------------------------------------
    # wrapping

    def timed(
        self,
        label: str,
        layer: str,
        fn: Callable,
        *,
        layer_of: Optional[Callable[[tuple], str]] = None,
        job_of: Optional[Callable[[tuple], int]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span of ``layer`` (or ``layer_of(args)``)."""
        stack = self._stack
        self_s = self.self_s
        layer_calls = self.layer_calls
        calls = self.calls
        calls.setdefault(label, 0)
        spans = self.spans
        clock = time.perf_counter
        ledger = self

        def wrapper(*args, **kwargs):
            name = layer if layer_of is None else layer_of(args)
            parent = stack[-1] if stack else None
            job = job_of(args) if job_of is not None else (parent[2] if parent else None)
            if job_of is not None and name == SELECT:
                ledger.jobs_started += 1
            span = None
            if ledger.jobs_started <= ledger.span_jobs:
                span = [name, 0.0, 0.0, parent[1] if parent else -1, job]
                spans.append(span)
            frame = [0.0, len(spans) - 1 if span is not None else -1, job]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                self_s[name] += elapsed - frame[0]
                layer_calls[name] += 1
                calls[label] += 1
                if stack:
                    stack[-1][0] += elapsed
                if span is not None:
                    span[1] = t0
                    span[2] = t1

        return wrapper

    def _patch(self, owner: Any, attr: str, layer: str, **kw: Any) -> None:
        original = owner.__dict__[attr]
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.timed(label, layer, original, **kw))

    def install(self) -> None:
        """Wrap every layer's public entry points (idempotent per ledger)."""
        if self._undo:
            return
        from repro.allocation.base import Allocator
        from repro.cluster.state import ClusterState
        from repro.cost.model import CostModel
        from repro.experiments import runner
        from repro.scheduler.engine import SchedulerEngine
        from repro.scheduler.events import EventQueue
        from repro.scheduler.queue_policy import EasyBackfillPolicy

        for name in ("push", "pop_simultaneous", "peek"):
            self._patch(EventQueue, name, "scheduler.events")
        for name in ("begin_pass", "extend_pass", "select_startable"):
            self._patch(EasyBackfillPolicy, name, "scheduler.queue_policy")
        self._patch(
            Allocator,
            "allocate",
            SELECT,
            layer_of=self._allocation_layer,
            job_of=lambda args: args[2].job_id,
        )
        for name in ("allocate", "release", "release_many", "mark_down", "mark_up", "jobs_on"):
            self._patch(ClusterState, name, "cluster.state.mutate")
        self._patch(ClusterState, "comm_overlay", "cluster.state.overlay")
        self._patch(CostModel, "allocation_cost", "cost.eq6")
        self._patch(CostModel, "adjusted_runtime", "cost.eq7")
        # sweep cells generate their own traces
        self._patch(runner, "prepare_jobs", "workloads")
        # not a layer of its own: a span boundary (its self time lands in
        # the residual) that also names the engine whose allocator runs
        original_run = SchedulerEngine.__dict__["run"]
        self._undo.append((SchedulerEngine, "run", original_run))
        SchedulerEngine.run = self._engine_run(original_run)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _allocation_layer(self, args: tuple) -> str:
        engine = self.engine
        if engine is None or args[0] is engine.allocator:
            return SELECT
        return COUNTERFACTUAL

    def _engine_run(self, run: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        ledger = self

        def wrapper(engine, *args, **kwargs):
            previous, ledger.engine = ledger.engine, engine
            frame = [0.0, stack[-1][1] if stack else -1, None]
            stack.append(frame)
            t0 = clock()
            try:
                return run(engine, *args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                ledger.engine = previous

        return wrapper

    def span(self, layer: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn(*args)`` inside one span of ``layer``."""
        return self.timed(layer, layer, fn)(*args)

    def iterate(self, iterable: Iterable) -> Iterator:
        """``iterable`` with every ``next`` timed as ``workloads``."""
        return _TimedIterator(self.timed("trace.next", "workloads", iter(iterable).__next__))

    # ------------------------------------------------------------------
    # results

    def self_times(self, wall_s: float) -> Dict[str, float]:
        """Self seconds per layer, with the engine residual filling the wall."""
        times = dict(self.self_s)
        times[ENGINE] = wall_s - sum(self.self_s.values())
        return times

    def metrics(self, wall_s: float, jobs: int, counters: Dict[str, float]) -> Dict[str, float]:
        """The per-layer metrics of one traced run of ``jobs`` jobs.

        ``counters`` are the engine's own :class:`repro.obs.PerfRecorder`
        counters for the same run. The ``runs.*`` fan-out metrics other
        than the share need an untraced pooled run and are filled in by
        the caller.
        """
        times = self.self_times(wall_s)
        per_job = 1e6 / jobs
        out: Dict[str, float] = {}
        for layer in (
            SELECT,
            COUNTERFACTUAL,
            "cluster.state.mutate",
            "cluster.state.overlay",
            "cost.eq6",
            "scheduler.queue_policy",
            "scheduler.events",
        ):
            out[f"{layer}.self_us_per_job"] = times[layer] * per_job
            out[f"{layer}.calls_per_job"] = self.layer_calls[layer] / jobs
        for layer in ("cost.eq7", "workloads", ENGINE):
            out[f"{layer}.self_us_per_job"] = times[layer] * per_job

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        hits = counters.get("cost.cache_hits", 0)
        out["cost.cache_hit_ratio"] = ratio(hits, hits + counters.get("cost.cache_misses", 0))
        out["cost.kernel_nodes_per_job"] = counters.get("cost.kernel_nodes", 0) / jobs
        full = counters.get("engine.passes_full", 0)
        incremental = counters.get("engine.passes_incremental", 0)
        skipped = counters.get("engine.passes_skipped", 0)
        passes = full + incremental + skipped
        out["scheduler.engine.pass_skip_ratio"] = ratio(skipped, passes)
        out["scheduler.engine.pass_incremental_ratio"] = ratio(incremental, passes)
        scanned = counters.get("policy.jobs_scanned", 0)
        out["scheduler.queue_policy.scanned_per_pass"] = ratio(scanned, full + incremental)
        out["scheduler.queue_policy.pick_ratio"] = ratio(counters.get("policy.jobs_picked", 0), scanned)
        out["scheduler.events.same_tick_events"] = counters.get("engine.events", 0) - counters.get(
            "engine.batches", 0
        )
        for layer, seconds in times.items():
            out[f"{layer}.share"] = seconds / wall_s
        return out

    def write_spans(self, path: Path) -> int:
        """Write the retained spans as JSON lines; returns how many."""
        epoch = self.epoch
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_us": round((start - epoch) * 1e6, 3),
                            "end_us": round((end - epoch) * 1e6, 3),
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)


class _TimedIterator:
    __slots__ = ("_next",)

    def __init__(self, next_fn: Callable) -> None:
        self._next = next_fn

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        return self._next()
