"""The benchmark's four workloads: inputs from a seed, one timed call, checks.

Each workload's :func:`prepare` does the set-up — topology, engine and
every input the program reads — and returns a :class:`Prepared` whose
``call`` is the single call into the program that the benchmark times.
``finish`` runs after the clock stops: it digests the output, digests
the inputs (regenerated from the seed) and checks the schedule
independently of the engine.

Why each workload exists, and which layer it exercises or bypasses, is
in ``README.md`` next to this file. ``repro`` is imported inside the
workload functions because ``bench.py`` reads this module's constants
without the program on its path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ledger import Ledger

WORKLOADS = ("stream-default", "mira-adaptive", "swf-backlog-faults", "sweep-fanout")

#: (full, quick) sizes: jobs for the replays, grid points for the sweep
SIZES = {
    "stream-default": (80_000, 8_000),
    "mira-adaptive": (4_000, 400),
    "swf-backlog-faults": (16_000, 1_600),
    "sweep-fanout": (48, 4),
}
SWEEP_JOBS_PER_POINT = 400
SWEEP_ALLOCATORS = ("default", "balanced")
#: pool size of the sweep; the benchmark host has two cores
SWEEP_WORKERS = 2


@dataclass
class Prepared:
    """Everything one timed call needs, built during set-up."""

    #: the timed call into the program; returns its raw output
    call: Callable[[], Any]
    #: simulated jobs the call replays (the ``jobs_per_s`` numerator)
    jobs: int
    #: output -> (output digest, inputs digest, schedule problems)
    finish: Callable[[Any], Tuple[str, str, List[str]]]
    cleanup: Callable[[], None] = lambda: None


def prepare(
    workload: str,
    seed: int,
    *,
    quick: bool = False,
    serial: bool = False,
    ledger: Optional[Ledger] = None,
    workdir: Path,
) -> Prepared:
    """Set up ``workload`` for ``seed``.

    ``serial`` runs the sweep with one in-process worker (the baseline
    of ``runs.parallel_efficiency`` and the traced sweep); ``ledger``
    routes the trace reads through the ledger's ``workloads`` layer.
    """
    size = SIZES[workload][1 if quick else 0]
    if workload == "stream-default":
        return _stream_default(seed, size, ledger)
    if workload == "mira-adaptive":
        return _mira_adaptive(seed, size, ledger)
    if workload == "swf-backlog-faults":
        return _swf_backlog_faults(seed, size, ledger, workdir)
    if workload == "sweep-fanout":
        return _sweep_fanout(seed, size, 1 if serial else SWEEP_WORKERS, ledger)
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ----------------------------------------------------------------------
# the workloads


def _rhvd():
    from repro.workloads import single_pattern_mix

    return single_pattern_mix("rhvd")


def _stream_default(seed: int, n_jobs: int, ledger: Optional[Ledger]) -> Prepared:
    from repro.scheduler.engine import EngineConfig, SchedulerEngine
    from repro.scheduler.metrics import SimulationResult
    from repro.topology.builders import theta_like
    from repro.workloads import assign_kinds_stream, stream_trace

    topology = theta_like()
    engine = SchedulerEngine(topology, "default", EngineConfig(policy="backfill"))

    def jobs():
        return assign_kinds_stream(
            stream_trace(n_jobs, seed=seed), percent_comm=10.0, mix=_rhvd(), seed=seed + 2
        )

    stream = ledger.iterate(jobs()) if ledger is not None else jobs()
    records: list = []

    def call():
        return engine.run(stream=stream, record_sink=records.append)

    def finish(result):
        full = SimulationResult(result.allocator_name, records, result.unstarted)
        inputs = list(jobs())
        return _finish_replay(full, inputs, topology.n_nodes)

    return Prepared(call, n_jobs, finish)


def _mira_adaptive(seed: int, n_jobs: int, ledger: Optional[Ledger]) -> Prepared:
    from repro.scheduler.engine import EngineConfig, SchedulerEngine
    from repro.topology.builders import mira_like
    from repro.workloads import assign_kinds, generate_log
    from repro.workloads.logs import MIRA_SPEC

    topology = mira_like()
    engine = SchedulerEngine(topology, "adaptive", EngineConfig(policy="backfill"))
    jobs = assign_kinds(
        generate_log(MIRA_SPEC, n_jobs, seed), percent_comm=90.0, mix=_rhvd(), seed=seed + 2
    )

    # the engine reads the materialized trace through one iterator
    trace = ledger.iterate(jobs) if ledger is not None else jobs

    def finish(result):
        return _finish_replay(result, jobs, topology.n_nodes)

    return Prepared(lambda: engine.run(trace), n_jobs, finish)


def _swf_backlog_faults(
    seed: int, n_jobs: int, ledger: Optional[Ledger], workdir: Path
) -> Prepared:
    from repro.faults import FaultGeneratorConfig, generate_faults
    from repro.scheduler.engine import EngineConfig, SchedulerEngine
    from repro.topology.builders import theta_like
    from repro.workloads import SwfRecord, assign_kinds, generate_log, iter_swf, swf_to_trace, write_swf
    from repro.workloads.logs import THETA_SPEC

    topology = theta_like()
    trace = generate_log(THETA_SPEC, n_jobs, seed)
    # integer seconds, as real archive logs have: same-tick events happen
    records = [
        SwfRecord(
            job_number=t.job_id,
            submit_time=int(t.submit_time),
            wait_time=-1,
            run_time=max(1, round(t.runtime)),
            allocated_processors=t.nodes,
            average_cpu_time=-1,
            used_memory=-1,
            requested_processors=t.nodes,
            requested_time=-1,
            requested_memory=-1,
            status=1,
            user_id=-1,
            group_id=-1,
            executable=-1,
            queue_number=-1,
            partition_number=-1,
            preceding_job=-1,
            think_time=-1,
        )
        for t in trace
    ]
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"backlog-{seed}-{os.getpid()}.swf"
    path.write_text(write_swf(records))
    span = records[-1].submit_time - records[0].submit_time
    faults = generate_faults(
        topology, FaultGeneratorConfig(rate=2.0, horizon=1.5 * span, seed=seed + 7)
    )
    engine = SchedulerEngine(
        topology, "greedy", EngineConfig(policy="backfill", interrupt_policy="requeue")
    )
    parsed: list = []

    def parse():
        jobs = assign_kinds(
            swf_to_trace(iter_swf(path)), percent_comm=50.0, mix=_rhvd(), seed=seed + 2
        )
        parsed.extend(jobs)
        return jobs

    def call():
        jobs = ledger.span("workloads", parse) if ledger is not None else parse()
        return engine.run(jobs, faults=faults)

    def finish(result):
        return _finish_replay(result, parsed, topology.n_nodes)

    return Prepared(call, n_jobs, finish, cleanup=lambda: path.unlink(missing_ok=True))


def _sweep_fanout(seed: int, points: int, workers: int, ledger: Optional[Ledger]) -> Prepared:
    from repro.experiments.runner import prepare_jobs
    from repro.experiments.sweeps import expand_grid, point_config, sweep
    from repro.runs import digest_obj

    grid = {"seed": list(range(seed, seed + points))}
    defaults = {
        "log": "theta",
        "n_jobs": SWEEP_JOBS_PER_POINT,
        "percent_comm": 50.0,
        "policy": "backfill",
    }

    def run_sweep():
        # on_task_error="raise" fails fast on a bad cell and routes the
        # fan-out through run_tasks, which reports each finished cell
        return sweep(
            grid,
            defaults=defaults,
            allocators=SWEEP_ALLOCATORS,
            workers=workers,
            on_task_error="raise",
        )

    def call():
        return ledger.span("runs", run_sweep) if ledger is not None else run_sweep()

    def finish(rows):
        configs = [point_config(p, SWEEP_ALLOCATORS) for p in expand_grid(grid, defaults)]
        inputs = [job for cfg in configs for job in prepare_jobs(cfg)]
        problems = []
        cells = {(row["seed"], row["allocator"]) for row in rows}
        want = {(s, a) for s in grid["seed"] for a in SWEEP_ALLOCATORS}
        if len(rows) != len(want) or cells != want:
            problems.append(f"sweep returned {len(rows)} rows for {len(want)} cells")
        for row in rows:
            if row["jobs"] + row["unstarted_jobs"] != SWEEP_JOBS_PER_POINT:
                problems.append(
                    f"cell seed={row['seed']} {row['allocator']}: "
                    f"{row['jobs']} records + {row['unstarted_jobs']} unstarted"
                )
        return digest_obj(rows), _jobs_digest(inputs), problems

    jobs = points * len(SWEEP_ALLOCATORS) * SWEEP_JOBS_PER_POINT
    return Prepared(call, jobs, finish)


# ----------------------------------------------------------------------
# output checks


def _jobs_digest(jobs: Iterable) -> str:
    from repro.runs import digest_obj

    return digest_obj(
        [
            [
                j.job_id,
                j.submit_time,
                j.nodes,
                j.runtime,
                j.kind.name,
                [[c.pattern.name, c.fraction] for c in j.comm],
            ]
            for j in jobs
        ]
    )


def _finish_replay(result, inputs: Sequence, n_nodes: int) -> Tuple[str, str, List[str]]:
    from repro.runs import result_digest

    return result_digest(result), _jobs_digest(inputs), check_schedule(inputs, result, n_nodes)


def check_schedule(jobs: Sequence, result, n_nodes: int, limit: int = 5) -> List[str]:
    """Problems in ``result`` as a schedule of ``jobs`` (empty = valid).

    Independent of the engine: every job is accounted for exactly once,
    no job starts before its submission or gets the wrong node count,
    and no node runs two jobs at once. Records are walked in start
    order with each node's busy-until time; the first overlap on a node
    is always caught because, among non-overlapping earlier jobs, the
    latest-starting one also finishes last.
    """
    problems: List[str] = []
    by_id = {job.job_id: job for job in jobs}
    seen = set()
    for job in result.unstarted:
        seen.add(job.job_id)
    busy_until = np.zeros(n_nodes, dtype=np.float64)
    records = sorted(result.records, key=lambda r: (r.start_time, r.job.job_id))
    for rec in records:
        job_id = rec.job.job_id
        job = by_id.get(job_id)
        nodes = np.asarray(rec.nodes, dtype=np.int64)
        if job is None or job_id in seen:
            problems.append(f"job {job_id}: unknown or recorded twice")
        elif rec.start_time < job.submit_time or rec.finish_time < rec.start_time:
            problems.append(f"job {job_id}: runs [{rec.start_time}, {rec.finish_time}] before its submit")
        elif nodes.size != job.nodes or np.unique(nodes).size != nodes.size:
            problems.append(f"job {job_id}: {nodes.size} nodes for a {job.nodes}-node request")
        elif nodes.min() < 0 or nodes.max() >= n_nodes:
            problems.append(f"job {job_id}: node id out of range")
        elif (busy_until[nodes] > rec.start_time).any():
            problems.append(f"job {job_id}: starts on a node another job still holds")
        seen.add(job_id)
        if nodes.size and nodes.min() >= 0 and nodes.max() < n_nodes:
            busy_until[nodes] = rec.finish_time
        if len(problems) >= limit:
            return problems
    missing = len(by_id.keys() - seen)
    if missing:
        problems.append(f"{missing} job(s) neither finished nor left unstarted")
    return problems
