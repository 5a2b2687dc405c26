"""Runtime invariant checking over cluster state and the engine.

:meth:`ClusterState.validate` is an assert-based debugging aid: the
first drifted counter aborts with a bare ``AssertionError``. This
module is its production-grade counterpart — every invariant has a
*name*, a check returns **all** violations (not just the first), and
the engine can run the whole battery every N event batches
(``EngineConfig.validate_invariants`` / ``simulate
--validate-invariants``) with checks and violations surfaced as
``engine.invariant_checks`` / ``engine.invariant_violations`` in
:mod:`repro.obs`.

Invariants checked (see ``docs/resilience.md`` for the full table):

* ``leaf-free-conservation`` / ``leaf-offline-conservation`` /
  ``leaf-comm-conservation`` / ``leaf-io-conservation`` — every
  per-leaf counter equals a fresh bincount of the node-granular
  arrays; together with ``counter-bounds`` this is the
  free + busy + offline == capacity conservation law.
* ``comm-within-busy`` / ``io-within-busy`` — kind counters never
  exceed occupancy.
* ``allocatable-mask`` — the state's allocatable mask, which every
  mutation keeps current, equals free **and** UP node by node.
* ``drain-count`` — the state's count of DRAINING nodes, which lets a
  release skip reading its nodes' availability, equals the number of
  DRAINING entries in the availability array.
* ``leaf-takes`` — each running record's per-leaf takes (what release
  moves the counters by) are the per-leaf counts of its nodes.
* ``no-double-allocation`` — no node is held by two running jobs.
* ``node-job-index`` — the node→job index agrees with the running
  records, exactly.
* ``no-job-on-down-node`` — DOWN nodes never carry running work.
* ``version-monotonic`` — the state's mutation counter never runs
  backwards between checks (a stateful check).
* ``heap-running-consistency`` — every running job has its FINISH
  event in the heap, referencing the *same* entry object (the
  engine's stale-finish detection depends on identity).
* ``queue-running-disjoint`` — no job is simultaneously queued and
  running.
* ``queue-arrays`` — the queue's live ``nodes`` and ``runtime`` arrays
  equal its jobs' fields, in queue order (the EASY scan's mask reads
  the arrays, the exact test reads the jobs).
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np

from .obs import runtime as obs_runtime
from .cluster.state import (
    AVAIL_DOWN,
    AVAIL_DRAINING,
    AVAIL_UP,
    NODE_COMM,
    NODE_FREE,
    NODE_IO,
    ClusterState,
    record_takes_match,
)
from .scheduler.events import EventKind

__all__ = [
    "InvariantViolation",
    "check_cluster_state",
    "check_queue_arrays",
    "InvariantChecker",
]


class InvariantViolation(AssertionError):
    """One or more named invariants failed.

    ``violations`` holds every failure found by the check that raised,
    each prefixed with its invariant name — a corrupted state usually
    breaks several invariants at once, and the full list is what makes
    the failure diagnosable.
    """

    def __init__(self, violations: List[str]) -> None:
        self.violations = list(violations)
        summary = "; ".join(self.violations[:3])
        extra = len(self.violations) - 3
        if extra > 0:
            summary += f"; … and {extra} more"
        super().__init__(
            f"{len(self.violations)} invariant violation(s): {summary}"
        )


def check_cluster_state(state: ClusterState) -> List[str]:
    """All cluster-state invariant violations, empty when healthy.

    Pure and side-effect free: reads the state, mutates nothing, and
    never raises — callers decide whether a non-empty list is fatal.
    """
    topo = state.topology
    out: List[str] = []
    free_mask = (state.node_state == NODE_FREE) & (state.node_avail == AVAIL_UP)
    offline_mask = (state.node_state == NODE_FREE) & (state.node_avail != AVAIL_UP)
    leaf_of = topo.leaf_of_node
    pairs = [
        ("leaf-free-conservation", free_mask, state.leaf_free, "leaf_free"),
        ("leaf-offline-conservation", offline_mask, state.leaf_offline, "leaf_offline"),
        ("leaf-comm-conservation", state.node_state == NODE_COMM, state.leaf_comm, "leaf_comm"),
        ("leaf-io-conservation", state.node_state == NODE_IO, state.leaf_io, "leaf_io"),
    ]
    for name, mask, counter, label in pairs:
        expect = np.bincount(leaf_of[mask], minlength=topo.n_leaves)
        if not np.array_equal(expect, counter):
            bad = np.flatnonzero(expect != counter)
            out.append(
                f"{name}: {label} drifted on {bad.size} leaf(s) "
                f"(first: leaf {int(bad[0])} holds {int(counter[bad[0]])}, "
                f"nodes say {int(expect[bad[0]])})"
            )
    if np.any(state.leaf_free < 0) or np.any(state.leaf_free > topo.leaf_sizes):
        out.append("counter-bounds: leaf_free outside [0, leaf_sizes]")
    if np.any(state.leaf_offline < 0):
        out.append("counter-bounds: negative leaf_offline")
    busy = state.leaf_busy
    if np.any(state.leaf_comm > busy):
        out.append("comm-within-busy: leaf_comm exceeds leaf_busy")
    if np.any(state.leaf_io > busy):
        out.append("io-within-busy: leaf_io exceeds leaf_busy")
    stale = np.flatnonzero(state.allocatable != free_mask)
    if stale.size:
        out.append(
            f"allocatable-mask: {stale.size} node(s) disagree with free & UP "
            f"(first: node {int(stale[0])})"
        )
    draining = int(np.count_nonzero(state.node_avail == AVAIL_DRAINING))
    if state.n_draining != draining:
        out.append(
            f"drain-count: the state counts {state.n_draining} DRAINING "
            f"node(s), the availability array holds {draining}"
        )

    seen = np.zeros(topo.n_nodes, dtype=bool)
    for record in state.running.values():
        clash = record.nodes[seen[record.nodes]]
        if clash.size:
            out.append(
                f"no-double-allocation: node(s) {clash[:4].tolist()} held by "
                f"job {record.job_id} and an earlier job"
            )
        seen[record.nodes] = True
        if not record_takes_match(topo, record):
            out.append(
                f"leaf-takes: takes of job {record.job_id} are not the "
                "per-leaf counts of its nodes"
            )
        wrong = record.nodes[state.node_job[record.nodes] != record.job_id]
        if wrong.size:
            out.append(
                f"node-job-index: node(s) {wrong[:4].tolist()} of job "
                f"{record.job_id} point elsewhere in node_job"
            )
        down = record.nodes[state.node_avail[record.nodes] == AVAIL_DOWN]
        if down.size:
            out.append(
                f"no-job-on-down-node: job {record.job_id} occupies DOWN "
                f"node(s) {down[:4].tolist()}"
            )
    if not np.array_equal(seen, state.node_state != NODE_FREE):
        out.append(
            "no-double-allocation: occupied node_state entries disagree "
            "with the union of running allocations"
        )
    if not np.array_equal(seen, state.node_job >= 0):
        out.append("node-job-index: node_job occupancy disagrees with running set")
    return out


def check_queue_arrays(queue: Any) -> List[str]:
    """``queue-arrays``: a JobQueue's arrays hold its jobs' fields in order.

    ``queue`` is a :class:`~repro.scheduler.queue_policy.JobQueue`, read
    through its ``nodes`` / ``runtime`` views and its iteration.
    """
    n = len(queue)
    nodes = np.fromiter((job.nodes for job in queue), dtype=np.int64, count=n)
    runtime = np.fromiter((job.runtime for job in queue), dtype=np.float64, count=n)
    out = []
    for name, live, expected in (
        ("nodes", queue.nodes, nodes),
        ("runtime", queue.runtime, runtime),
    ):
        if live.shape != expected.shape:
            out.append(
                f"queue-arrays: {live.size} {name} entries for {n} queued jobs"
            )
            continue
        drift = np.flatnonzero(live != expected)
        if drift.size:
            out.append(
                f"queue-arrays: {name} of {drift.size} queued job(s) disagree "
                f"with the jobs, first at queue index {int(drift[0])}"
            )
    return out


class InvariantChecker:
    """Stateful battery: cluster-state checks plus engine-level ones.

    One checker lives for one engine run; the state it keeps between
    calls (the last seen version counter) is what makes the
    monotonicity invariant checkable at all. Every call bumps
    ``engine.invariant_checks``; every violation bumps
    ``engine.invariant_violations`` — both visible in ``--perf`` /
    ``--metrics-out`` output.
    """

    def __init__(self, *, raise_on_violation: bool = True) -> None:
        self.raise_on_violation = raise_on_violation
        self.checks = 0
        self.violations: List[str] = []
        self._last_version: Optional[int] = None

    def check_state(self, state: ClusterState) -> List[str]:
        """Cluster-state battery plus version monotonicity."""
        found = check_cluster_state(state)
        if self._last_version is not None and state.version < self._last_version:
            found.append(
                f"version-monotonic: state version ran backwards "
                f"({self._last_version} -> {state.version})"
            )
        self._last_version = state.version
        return found

    def check_engine(self, engine: Any, rs: Any) -> List[str]:
        """Full battery over a live engine run.

        ``engine`` is a :class:`~repro.scheduler.engine.SchedulerEngine`
        and ``rs`` its active run state; both are read via their public
        attributes only (duck-typed so this module never imports the
        engine).
        """
        self.checks += 1
        obs_runtime.count("engine.invariant_checks")
        found = self.check_state(rs.state)

        finish_entries = {
            id(event.payload)
            for event in rs.events.snapshot_entries()
            if event.kind is EventKind.FINISH
        }
        for job_id, entry in rs.running.items():
            if id(entry) not in finish_entries:
                found.append(
                    f"heap-running-consistency: running job {job_id} has no "
                    "FINISH event in the heap (it would run forever)"
                )
        queued = {job.job_id for job in rs.queue}
        both = queued & set(rs.running)
        if both:
            found.append(
                f"queue-running-disjoint: job(s) {sorted(both)[:4]} are "
                "queued and running at once"
            )
        found.extend(check_queue_arrays(rs.queue))
        if found:
            obs_runtime.count("engine.invariant_violations", len(found))
            self.violations.extend(found)
            if self.raise_on_violation:
                raise InvariantViolation(found)
        return found
