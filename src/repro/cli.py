"""Command-line interface: ``repro-sched`` / ``python -m repro``.

Subcommands:

* ``experiment <name>`` — regenerate a paper table/figure
  (figure1, table2, table3, figure6, table4, figure7, figure8, figure9).
* ``simulate`` — run one synthetic log through one allocator and print
  the aggregate metrics.
* ``topology <machine>`` — emit the ``topology.conf`` of a builtin
  machine shape.
* ``validate-conf <file>`` — lint a ``topology.conf`` file.
* ``trace`` — generate a synthetic machine log (SWF) or print the
  statistics of an existing one.
* ``verify-run`` — replay journaled tasks of a finished run and diff
  their digests against the journal (determinism check). Exit codes:
  0 ok, 1 digest mismatch, 2 other error, 3 artifact integrity failure.
* ``obs render`` — summarize observability artifacts written by
  ``simulate --metrics-out`` / ``--trace-out`` (see
  ``docs/observability.md``).
* ``chaos plan`` / ``chaos run`` — generate and execute seeded chaos
  plans that kill workers and corrupt artifacts mid-run, verifying the
  harness recovers bit-identically (see ``docs/resilience.md``).
* ``sweep`` — run a parameter sweep (``--param name=v1,v2`` repeated)
  and emit tidy CSV rows.
* ``tournament`` — rank every registered allocator across a workload
  suite and fault regimes; emits the ranked markdown report (and
  optionally JSON + Prometheus timing counters). See
  ``docs/allocators.md``.

Exit codes follow one convention everywhere: 0 success, 1 the run
finished but degraded (partial rows, digest mismatch, chaos failure, a
cell that raised), 2 usage or I/O error, 3 artifact integrity failure,
130 interrupted.

``simulate`` is crash-safe: ``--checkpoint-path``/``--checkpoint-dir``
with ``--checkpoint-every`` periodically write atomic engine
checkpoints, ``--resume-from`` continues one bit-identically (falling
back past corrupt generations when given a checkpoint directory), and
SIGINT/SIGTERM write a final checkpoint (when enabled) and exit 130
with a one-line message instead of a traceback.
``--validate-invariants`` audits cluster/engine state invariants as
the simulation runs. See ``docs/resilience.md``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from dataclasses import replace
from typing import List, Optional

from .experiments import EXPERIMENT_RUNNERS, ExperimentConfig, continuous_runs
from .experiments.report import render_kv, write_report
from .runs import TaskFailedError
from .scheduler.serialize import dump_result
from .topology.builders import TOPOLOGY_BUILDERS
from .topology.config import load_topology_conf, write_topology_conf
from .topology.tree import TopologyError
from .workloads.classify import single_pattern_mix
from .workloads.logs import LOG_SPECS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-sched`` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description="Reproduction of 'Communication-aware Job Scheduling using SLURM' (ICPP-W 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("name", choices=sorted(EXPERIMENT_RUNNERS))
    exp.add_argument(
        "--jobs", type=int, default=None,
        help="jobs per log (default: the experiment's paper-scale default)",
    )
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the rendered report to FILE (atomic write)",
    )

    sim = sub.add_parser("simulate", help="run one log through one allocator")
    sim.add_argument("--log", choices=sorted(LOG_SPECS), default="theta")
    sim.add_argument(
        "--allocator", default="balanced", metavar="SPEC",
        help="any registered allocator, optionally parameterized, e.g. "
        "'balanced' or 'sa:iters=500' (catalogue: docs/allocators.md)",
    )
    sim.add_argument("--jobs", type=int, default=1000)
    sim.add_argument("--percent-comm", type=float, default=90.0)
    sim.add_argument(
        "--pattern",
        choices=("rd", "rhvd", "binomial", "alltoall", "ring", "stencil2d"),
        default="rhvd",
    )
    sim.add_argument("--comm-fraction", type=float, default=0.70)
    sim.add_argument(
        "--policy", choices=("backfill", "fifo", "conservative"), default="backfill"
    )
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run allocators in N parallel processes (results are "
        "bit-identical to the serial path)",
    )
    sim.add_argument(
        "--save", default=None, metavar="DIR",
        help="write each run's records as JSON into this directory",
    )
    sim.add_argument(
        "--fault-trace", default=None, metavar="FILE",
        help="replay node/switch failures from a fault trace file "
        "(takes precedence over --fault-rate)",
    )
    sim.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="PER_HOUR",
        help="generate random failures at this rate per hour "
        "(0 = no faults, the default; bit-identical to the fault-free path)",
    )
    sim.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the random fault generator (same seed = same faults)",
    )
    sim.add_argument(
        "--mttr", type=float, default=1800.0, metavar="SECONDS",
        help="mean downtime of a generated failure (default 1800s)",
    )
    sim.add_argument(
        "--switch-fault-fraction", type=float, default=0.1, metavar="FRAC",
        help="fraction of generated failures that take a whole leaf "
        "switch down (default 0.1)",
    )
    sim.add_argument(
        "--interrupt-policy",
        choices=("requeue", "checkpoint", "abandon"),
        default="requeue",
        help="what happens to a running job killed by a failure",
    )
    sim.add_argument(
        "--checkpoint-interval", type=float, default=3600.0, metavar="SECONDS",
        help="checkpoint period for --interrupt-policy checkpoint",
    )
    sim.add_argument(
        "--checkpoint-path", default=None, metavar="FILE",
        help="write engine checkpoints to FILE (atomic; single-allocator "
        "runs only). SIGINT/SIGTERM write a final checkpoint here.",
    )
    sim.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="keep the last few checkpoints as generations in DIR "
        "(ckpt-<batches>.json) instead of one file; resume falls back "
        "past corrupt generations to the last good one",
    )
    sim.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint every N event batches (requires "
        "--checkpoint-path or --checkpoint-dir)",
    )
    sim.add_argument(
        "--resume-from", default=None, metavar="PATH",
        help="resume a checkpointed run from a checkpoint file or a "
        "--checkpoint-dir directory (the newest intact generation is "
        "used); the completed result is bit-identical to an "
        "uninterrupted one",
    )
    sim.add_argument(
        "--stop-after-events", type=int, default=None, metavar="N",
        help="pause the run after N event batches (writes a checkpoint "
        "when --checkpoint-path is set) — mainly for crash/resume tests",
    )
    sim.add_argument(
        "--journal", default=None, metavar="FILE",
        help="append task specs, attempts, and result digests to this "
        "JSONL run journal (enables 'repro-sched verify-run' later)",
    )
    sim.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="retry a failed allocator run up to N times with backoff",
    )
    sim.add_argument(
        "--on-task-error",
        choices=("retry", "skip", "raise", "quarantine"),
        default="retry",
        help="what to do when an allocator run exhausts its retries: "
        "skip reports partial results naming the missing cells; "
        "quarantine records the failed cells (with their last error) "
        "and completes the rest",
    )
    sim.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task timeout for parallel runs (hung workers are "
        "terminated and the task retried)",
    )
    sim.add_argument(
        "--perf", action="store_true",
        help="trace scheduler hot paths (passes run/skipped, allocator "
        "and cost-kernel time, events/sec) and print the report after "
        "the summary; forces the single-engine path",
    )
    sim.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write run metrics (paper aggregates, distributions, perf "
        "counters) as Prometheus text exposition to FILE; forces the "
        "single-engine path and implies perf collection",
    )
    sim.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record nested wall-clock spans of the hot paths and write "
        "them as JSONL to FILE; forces the single-engine path",
    )
    sim.add_argument(
        "--progress", action="store_true",
        help="print a throttled progress heartbeat (events, jobs, "
        "sim-clock, ETA) to stderr while the simulation runs",
    )
    sim.add_argument(
        "--validate-invariants", type=int, nargs="?", const=1, default=None,
        metavar="N",
        help="audit cluster/engine state invariants every N event "
        "batches (default 1 when given without a value); a violation "
        "aborts the run with a named report; forces the single-engine "
        "path",
    )

    topo = sub.add_parser("topology", help="print a builtin machine's topology.conf")
    topo.add_argument("machine", choices=sorted(TOPOLOGY_BUILDERS))
    topo.add_argument(
        "--describe", action="store_true",
        help="render the switch tree instead of topology.conf syntax",
    )

    lint = sub.add_parser("validate-conf", help="lint a topology.conf file")
    lint.add_argument("path")

    trace = sub.add_parser("trace", help="generate or inspect a job trace")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    gen = trace_sub.add_parser("generate", help="write a synthetic log as SWF")
    gen.add_argument("--log", choices=sorted(LOG_SPECS), default="theta")
    gen.add_argument("--jobs", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", default="-", help="file path or - for stdout")
    stats = trace_sub.add_parser("stats", help="print statistics of an SWF file")
    stats.add_argument("path")
    stats.add_argument("--processors-per-node", type=int, default=1)

    verify = sub.add_parser(
        "verify-run",
        help="replay journaled tasks and diff digests (determinism check)",
    )
    verify.add_argument("path", help="run journal written with --journal")
    verify.add_argument(
        "--sample", type=int, default=None, metavar="N",
        help="replay a seeded sample of N completed tasks (default: all)",
    )
    verify.add_argument("--seed", type=int, default=0, help="sampling seed")

    obs_cmd = sub.add_parser(
        "obs", help="inspect observability artifacts (metrics, span traces)"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    render = obs_sub.add_parser(
        "render",
        help="summarize a metrics dump and/or span trace as a table",
    )
    render.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="Prometheus text file written by 'simulate --metrics-out'",
    )
    render.add_argument(
        "--trace", default=None, metavar="FILE",
        help="span-trace JSONL written by 'simulate --trace-out'",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded chaos harness: inject worker/artifact/io faults "
        "and verify bit-identical recovery",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)
    cplan = chaos_sub.add_parser(
        "plan", help="generate a replayable chaos plan as JSON"
    )
    cplan.add_argument("--seed", type=int, default=0)
    cplan.add_argument(
        "--allocators", nargs="+", default=["default", "balanced"],
        metavar="NAME",
        help="allocator cells the worker faults target (default: "
        "default balanced)",
    )
    cplan.add_argument(
        "--output", default="-", metavar="FILE",
        help="file path or - for stdout",
    )
    crun = chaos_sub.add_parser(
        "run",
        help="execute a chaos plan over a small experiment and verify "
        "full recovery",
    )
    crun.add_argument(
        "--plan", default=None, metavar="FILE",
        help="plan file written by 'chaos plan' (default: generate one "
        "from --seed)",
    )
    crun.add_argument(
        "--seed", type=int, default=0,
        help="seed for the generated plan (ignored with --plan)",
    )
    crun.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="scratch directory for journals/checkpoints/corrupted "
        "copies (default: a temporary directory, removed on success)",
    )
    crun.add_argument(
        "--jobs", type=int, default=30,
        help="jobs in the chaos experiment (default 30)",
    )
    crun.add_argument(
        "--workers", type=int, default=2,
        help="pool size for the executor-chaos phase (min 2)",
    )

    swp = sub.add_parser(
        "sweep",
        help="run a parameter sweep and emit tidy CSV rows",
    )
    swp.add_argument(
        "--param", action="append", default=[], metavar="NAME=V1,V2",
        help="one swept parameter and its values (repeatable); values "
        "are parsed as int, then float, then string",
    )
    swp.add_argument(
        "--default", action="append", default=[], metavar="NAME=VALUE",
        help="override one unswept parameter (repeatable)",
    )
    swp.add_argument(
        "--allocators", nargs="+", default=["default", "balanced"],
        metavar="NAME", help="allocators per grid point",
    )
    swp.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run grid points in N parallel processes",
    )
    swp.add_argument(
        "--output", default="-", metavar="FILE",
        help="CSV destination, - for stdout (default)",
    )

    tour = sub.add_parser(
        "tournament",
        help="rank every registered allocator across workloads and "
        "fault regimes (docs/allocators.md)",
    )
    tour.add_argument(
        "--allocators", nargs="+", default=None, metavar="SPEC",
        help="allocator specs to enter (default: every registered "
        "allocator); parameterized specs like 'sa:iters=60' are "
        "accepted and ranked under their spec string",
    )
    tour.add_argument(
        "--workloads", nargs="+", default=["theta", "stream"],
        metavar="NAME",
        help="workload suite: paper logs (theta, intrepid, mira) and "
        "the 'stream' synthetic (default: theta stream)",
    )
    tour.add_argument(
        "--regimes", nargs="+",
        default=["none", "node-faults", "switch-faults"], metavar="NAME",
        help="fault regimes (none, node-faults, switch-faults; "
        "default: all three)",
    )
    tour.add_argument(
        "--jobs", type=int, default=300, metavar="N",
        help="jobs per cell (default 300)",
    )
    tour.add_argument("--seed", type=int, default=0)
    tour.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run cells in N parallel processes",
    )
    tour.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="retry a failed cell up to N times with backoff",
    )
    tour.add_argument(
        "--on-task-error",
        choices=("retry", "skip", "raise", "quarantine"),
        default="retry",
        help="what to do when a cell exhausts its retries (skip "
        "reports the bracket with the cell listed as missing)",
    )
    tour.add_argument(
        "--journal", default=None, metavar="FILE",
        help="append-only run journal for verify-run replays",
    )
    tour.add_argument(
        "--output-md", default=None, metavar="FILE",
        help="write the ranked markdown report to FILE (atomic)",
    )
    tour.add_argument(
        "--output-json", default=None, metavar="FILE",
        help="write the full report as JSON to FILE (atomic)",
    )
    tour.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write per-allocator timing counters in Prometheus text "
        "format to FILE",
    )
    tour.add_argument(
        "--no-timing", action="store_true",
        help="omit wall-clock timings from every output (renders "
        "byte-identical across runs with equal arguments)",
    )
    tour.add_argument(
        "--progress", action="store_true",
        help="print a heartbeat line per finished cell to stderr",
    )

    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    runner = EXPERIMENT_RUNNERS[args.name]
    kwargs = {}
    if args.name not in ("table2", "figure1", "validation"):
        kwargs["seed"] = args.seed
        if args.jobs is not None:
            kwargs["n_jobs"] = args.jobs
    if args.name == "validation":
        kwargs["seed"] = args.seed
    if args.name == "all" and args.jobs is None:
        kwargs["n_jobs"] = 200  # keep the run-everything command snappy
    result = runner(**kwargs)
    text = result.render()
    print(text)
    if args.output:
        write_report(text, args.output)
        print(f"wrote {args.output}")
    return 0


def _simulate_faults(args: argparse.Namespace, cfg, jobs):
    """Fault schedule for ``simulate``: replayed trace or seeded generator."""
    from .faults import FaultGeneratorConfig, generate_faults, load_fault_trace

    if args.fault_trace is not None:
        return tuple(load_fault_trace(args.fault_trace, cfg.topology()))
    if args.fault_rate < 0:
        raise ValueError(f"--fault-rate must be >= 0, got {args.fault_rate}")
    if args.fault_rate > 0:
        # Horizon upper-bounds the busy period; later faults hit an idle
        # cluster and are skipped by the engine's early exit.
        horizon = max(j.submit_time for j in jobs) + sum(j.runtime for j in jobs)
        fault_cfg = FaultGeneratorConfig(
            rate=args.fault_rate,
            horizon=horizon,
            seed=args.fault_seed,
            mean_downtime=args.mttr,
            switch_fraction=args.switch_fault_fraction,
        )
        return tuple(generate_faults(cfg.topology(), fault_cfg))
    return ()


class _StopRequested:
    """Signal-set flag the engine polls between event batches."""

    def __init__(self) -> None:
        self.tripped = False

    def __call__(self) -> bool:
        return self.tripped


def _save_results(args: argparse.Namespace, results) -> None:
    import pathlib

    out_dir = pathlib.Path(args.save)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, res in results.items():
        path = out_dir / f"{args.log}_{name}.json"
        dump_result(res, path)
        print(f"wrote {path}")


def _simulate_engine_path(args: argparse.Namespace) -> int:
    """Single-engine simulate with checkpoint/resume and signal safety."""
    from contextlib import ExitStack

    from .experiments.runner import prepare_jobs
    from .obs import ProgressReporter, SpanTracer, tracing
    from .runs.checkpoints import CheckpointStore, resolve_resume
    from .scheduler.engine import SchedulerEngine, SimulationInterrupted

    collect = bool(args.perf or args.metrics_out)
    checkpoint_target = (
        CheckpointStore(args.checkpoint_dir)
        if args.checkpoint_dir is not None
        else args.checkpoint_path
    )
    flag = _StopRequested()

    def _handler(signum, frame):  # pragma: no cover - exercised via SIGINT test
        flag.tripped = True

    previous = {
        sig: signal.signal(sig, _handler) for sig in (signal.SIGINT, signal.SIGTERM)
    }
    tracer = SpanTracer() if args.trace_out is not None else None
    try:
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracing(tracer))
                stack.enter_context(tracer.span("engine.run"))
            if args.resume_from is not None:
                resolved = resolve_resume(args.resume_from)
                for skipped_path, why in resolved.skipped:
                    print(
                        f"skipping corrupt checkpoint {skipped_path}: {why}",
                        file=sys.stderr,
                    )
                if resolved.skipped:
                    print(
                        f"falling back to last good checkpoint {resolved.path}",
                        file=sys.stderr,
                    )
                data = resolved.snapshot
                engine = SchedulerEngine.from_snapshot(data)
                if collect:
                    engine.config = replace(engine.config, collect_perf=True)
                if args.validate_invariants is not None:
                    engine.config = replace(
                        engine.config, validate_invariants=args.validate_invariants
                    )
                reporter = (
                    ProgressReporter(total_jobs=None) if args.progress else None
                )
                result = engine.run(
                    resume_from=data,
                    checkpoint_every=args.checkpoint_every,
                    checkpoint_path=checkpoint_target,
                    stop_after=args.stop_after_events,
                    interrupt=flag,
                    progress=reporter,
                )
            else:
                cfg = ExperimentConfig(
                    log=args.log,
                    n_jobs=args.jobs,
                    percent_comm=args.percent_comm,
                    mix=single_pattern_mix(args.pattern, args.comm_fraction),
                    allocators=(args.allocator,),
                    seed=args.seed,
                    policy=args.policy,
                    interrupt_policy=args.interrupt_policy,
                    checkpoint_interval=args.checkpoint_interval,
                )
                jobs = prepare_jobs(cfg)
                faults = _simulate_faults(args, cfg, jobs)
                engine_cfg = cfg.engine_config()
                if collect:
                    engine_cfg = replace(engine_cfg, collect_perf=True)
                if args.validate_invariants is not None:
                    engine_cfg = replace(
                        engine_cfg, validate_invariants=args.validate_invariants
                    )
                engine = SchedulerEngine(cfg.topology(), args.allocator, engine_cfg)
                reporter = (
                    ProgressReporter(total_jobs=len(jobs)) if args.progress else None
                )
                result = engine.run(
                    jobs,
                    faults=faults,
                    checkpoint_every=args.checkpoint_every,
                    checkpoint_path=checkpoint_target,
                    stop_after=args.stop_after_events,
                    interrupt=flag,
                    progress=reporter,
                )
    except SimulationInterrupted as exc:
        print(exc, file=sys.stderr)
        return 130
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
    if tracer is not None:
        tracer.write_jsonl(args.trace_out)
        print(
            f"wrote {len(tracer.spans)} spans to {args.trace_out}"
            + (f" ({tracer.dropped} dropped)" if tracer.dropped else "")
        )
    if result is None:
        where = (
            f"; checkpoint written to {checkpoint_target}"
            if checkpoint_target is not None
            else " (no checkpoint path — state discarded)"
        )
        print(f"paused after {args.stop_after_events} event batches{where}")
        if args.metrics_out:
            print(
                "note: --metrics-out skipped (run paused before completion)",
                file=sys.stderr,
            )
        return 0
    print(
        render_kv(
            sorted(result.summary().items()),
            title=f"--- {engine.allocator.name} ---",
        )
    )
    if args.perf and result.perf is not None:
        from .obs import render_perf

        print(render_perf(result.perf))
    if args.metrics_out:
        from .obs import metrics_from_result
        from .runs.atomic import atomic_write_text

        # --metrics-out implies perf collection, so result.perf carries
        # engine.events / engine.batches alongside the paper aggregates.
        registry = metrics_from_result(result)
        atomic_write_text(args.metrics_out, registry.render_prometheus())
        print(f"wrote metrics to {args.metrics_out}")
    if args.save:
        _save_results(args, {engine.allocator.name: result})
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .experiments.runner import prepare_jobs
    from .faults.trace import FaultTraceError
    from .runs.integrity import IntegrityError
    from .validate import InvariantViolation

    engine_path = (
        args.resume_from is not None
        or args.checkpoint_path is not None
        or args.checkpoint_dir is not None
        or args.stop_after_events is not None
        or args.perf
        or args.metrics_out is not None
        or args.trace_out is not None
        or args.validate_invariants is not None
    )
    if args.checkpoint_path is not None and args.checkpoint_dir is not None:
        print(
            "error: --checkpoint-path and --checkpoint-dir are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.checkpoint_every is not None and (
        args.checkpoint_path is None and args.checkpoint_dir is None
    ):
        print(
            "error: --checkpoint-every requires --checkpoint-path or "
            "--checkpoint-dir",
            file=sys.stderr,
        )
        return 2
    try:
        if engine_path:
            return _simulate_engine_path(args)
        cfg = ExperimentConfig(
            log=args.log,
            n_jobs=args.jobs,
            percent_comm=args.percent_comm,
            mix=single_pattern_mix(args.pattern, args.comm_fraction),
            allocators=(args.allocator,) if args.allocator == "default" else ("default", args.allocator),
            seed=args.seed,
            policy=args.policy,
            interrupt_policy=args.interrupt_policy,
            checkpoint_interval=args.checkpoint_interval,
        )
        jobs = prepare_jobs(cfg)
        cfg = cfg.with_(faults=_simulate_faults(args, cfg, jobs))
        reporter = None
        if args.progress:
            from .obs import ProgressReporter

            reporter = ProgressReporter()
        results = continuous_runs(
            cfg,
            jobs,
            workers=args.workers,
            max_retries=args.max_retries,
            on_task_error=args.on_task_error,
            journal=args.journal,
            task_timeout=args.task_timeout,
            progress=reporter,
        )
        if reporter is not None:
            reporter.finish()
    except KeyboardInterrupt:
        print("simulation interrupted (no checkpoint configured)", file=sys.stderr)
        return 130
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except (OSError, FaultTraceError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, res in results.items():
        print(render_kv(sorted(res.summary().items()), title=f"--- {name} ---"))
    if args.save:
        _save_results(args, results)
    dropped = False
    for label, cells in (
        ("missing", getattr(results, "missing", None)),
        ("quarantined", getattr(results, "quarantined", None)),
    ):
        for name, error in (cells or {}).items():
            print(f"{label} cell {name!r}: {error}", file=sys.stderr)
            dropped = True
    if dropped:
        return 1
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    topology = TOPOLOGY_BUILDERS[args.machine]()
    if args.describe:
        from .topology.describe import describe_topology

        print(describe_topology(topology))
    else:
        sys.stdout.write(write_topology_conf(topology))
    return 0


def _cmd_validate_conf(args: argparse.Namespace) -> int:
    try:
        topology = load_topology_conf(args.path)
    except (TopologyError, OSError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(
        render_kv(
            [
                ("nodes", topology.n_nodes),
                ("leaf switches", topology.n_leaves),
                ("total switches", topology.n_switches),
                ("tree height", topology.height),
                ("largest leaf", int(topology.leaf_sizes.max())),
                ("smallest leaf", int(topology.leaf_sizes.min())),
            ],
            title=f"OK: {args.path}",
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .workloads import generate_log
    from .workloads.logs import LOG_SPECS as SPECS

    if args.trace_command == "generate":
        from .workloads.swf import STATUS_COMPLETED, SwfRecord, write_swf

        trace = generate_log(SPECS[args.log], args.jobs, seed=args.seed)
        records = [
            SwfRecord(
                job_number=t.job_id, submit_time=int(t.submit_time), wait_time=-1,
                run_time=max(int(t.runtime), 1), allocated_processors=t.nodes,
                average_cpu_time=-1, used_memory=-1, requested_processors=t.nodes,
                requested_time=max(int(t.runtime), 1), requested_memory=-1,
                status=STATUS_COMPLETED, user_id=-1, group_id=-1, executable=-1,
                queue_number=1, partition_number=1, preceding_job=-1, think_time=-1,
            )
            for t in trace
        ]
        text = write_swf(records, header=f"synthetic {args.log} log, seed {args.seed}")
        if args.output == "-":
            sys.stdout.write(text)
        else:
            from .runs.atomic import atomic_write_text

            atomic_write_text(args.output, text)
            print(f"wrote {len(records)} jobs to {args.output}")
        return 0

    # stats
    import numpy as np

    from .workloads import load_swf, swf_to_trace

    trace = swf_to_trace(
        load_swf(args.path), processors_per_node=args.processors_per_node
    )
    if not trace:
        print("no schedulable jobs in trace", file=sys.stderr)
        return 1
    sizes = np.array([t.nodes for t in trace])
    runtimes = np.array([t.runtime for t in trace])
    submits = np.array([t.submit_time for t in trace])
    pow2 = np.mean([(n & (n - 1)) == 0 for n in sizes])
    print(
        render_kv(
            [
                ("jobs", len(trace)),
                ("span (hours)", float(submits.max() - submits.min()) / 3600.0),
                ("mean interarrival (s)", float(np.diff(np.sort(submits)).mean())),
                ("median nodes", float(np.median(sizes))),
                ("max nodes", int(sizes.max())),
                ("power-of-two share", float(pow2)),
                ("median runtime (s)", float(np.median(runtimes))),
                ("max runtime (s)", float(runtimes.max())),
            ],
            title=f"trace statistics: {args.path}",
        )
    )
    return 0


def _cmd_verify_run(args: argparse.Namespace) -> int:
    from .runs import IntegrityError, verify_journal

    try:
        report = verify_journal(args.path, sample=args.sample, seed=args.seed)
    except IntegrityError as exc:
        # Distinct from exit 1 (digest mismatch = nondeterminism) and
        # exit 2 (usage/IO error): the journal itself is damaged.
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    from .obs import PromParseError, load_spans, parse_prometheus, render_obs_summary

    if args.obs_command != "render":  # pragma: no cover - argparse enforces
        raise AssertionError(f"unhandled obs command {args.obs_command!r}")
    if args.metrics is None and args.trace is None:
        print("error: obs render needs --metrics and/or --trace", file=sys.stderr)
        return 2
    samples = types = spans = None
    try:
        if args.metrics is not None:
            with open(args.metrics, "r", encoding="utf-8") as handle:
                samples, types = parse_prometheus(handle.read())
        if args.trace is not None:
            spans = load_spans(args.trace)
            from .obs import validate_spans

            validate_spans(spans)
    except (OSError, PromParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_obs_summary(samples=samples, types=types, spans=spans))
    return 0


def _parse_grid_value(text: str):
    """Parse one sweep value: int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_grid(args: argparse.Namespace):
    """Parse ``--param``/``--default`` flags into (grid, defaults).

    Raises ``ValueError`` on malformed flags; parameter-name validation
    happens downstream in ``expand_grid``.
    """
    grid = {}
    for item in args.param:
        name, sep, values = item.partition("=")
        if not sep or not name or not values:
            raise ValueError(f"--param needs NAME=V1,V2,... got {item!r}")
        grid[name] = [_parse_grid_value(v) for v in values.split(",")]
    defaults = {}
    for item in args.default:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"--default needs NAME=VALUE, got {item!r}")
        defaults[name] = _parse_grid_value(value)
    return grid, defaults


def _emit_rows(rows, output: str) -> None:
    """Write sweep rows as CSV to ``output`` (``-`` = stdout)."""
    from .experiments.sweeps import rows_to_csv

    text = rows_to_csv(rows)
    if output == "-":
        sys.stdout.write(text)
    else:
        from .runs import atomic_write_text

        atomic_write_text(output, text)
        print(f"wrote {len(rows)} rows to {output}")


def _report_partial(rows) -> int:
    """Print partial-report diagnostics; return the exit code."""
    from .runs import PartialRows

    if isinstance(rows, PartialRows) and not rows.complete:
        for key, why in sorted(rows.missing.items()):
            print(f"missing cell {key}: {why}", file=sys.stderr)
        for key, why in sorted(rows.quarantined.items()):
            print(f"quarantined cell {key}: {why}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.sweeps import sweep

    try:
        grid, defaults = _parse_grid(args)
        rows = sweep(
            grid,
            allocators=tuple(args.allocators),
            defaults=defaults or None,
            workers=args.workers,
        )
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("error: sweep produced no rows", file=sys.stderr)
        return 1
    _emit_rows(rows, args.output)
    return _report_partial(rows)


def _cmd_tournament(args: argparse.Namespace) -> int:
    from .experiments.tournament import run_tournament
    from .runs.integrity import IntegrityError

    reporter = None
    if args.progress:
        from .obs import ProgressReporter

        reporter = ProgressReporter()
    metrics = None
    if args.metrics_out is not None:
        from .obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
    try:
        report = run_tournament(
            args.allocators,
            workloads=tuple(args.workloads),
            regimes=tuple(args.regimes),
            n_jobs=args.jobs,
            seed=args.seed,
            workers=args.workers,
            max_retries=args.max_retries,
            on_task_error=args.on_task_error,
            journal=args.journal,
            progress=reporter,
            metrics=metrics,
        )
        include_timing = not args.no_timing
        markdown = report.render_markdown(include_timing=include_timing)
        print(markdown, end="")
        if args.output_md is not None:
            write_report(markdown, args.output_md)
        if args.output_json is not None:
            write_report(report.to_json(include_timing=include_timing), args.output_json)
        if metrics is not None:
            write_report(metrics.render_prometheus(), args.metrics_out)
    except KeyboardInterrupt:
        print("tournament interrupted", file=sys.stderr)
        return 130
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 3
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if reporter is not None:
            reporter.finish()
    if not report.complete:
        for key, error in sorted(report.missing.items()):
            print(f"missing cell {key!r}: {error}", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json

    from .chaos import ChaosPlanConfig, generate_chaos_plan, load_plan, run_chaos
    from .chaos.plan import plan_to_dict, save_plan

    if args.chaos_command == "plan":
        plan = generate_chaos_plan(
            ChaosPlanConfig(seed=args.seed, task_keys=tuple(args.allocators))
        )
        if args.output == "-":
            print(_json.dumps(plan_to_dict(plan), indent=1))
        else:
            save_plan(plan, args.output)
            print(f"wrote {len(plan.actions)} actions to {args.output}")
        return 0

    # chaos run
    try:
        plan = (
            load_plan(args.plan)
            if args.plan is not None
            else generate_chaos_plan(ChaosPlanConfig(seed=args.seed))
        )
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import shutil
    import tempfile

    from .chaos.runner import _plan_task_keys
    from .experiments import ExperimentConfig as _Config

    temporary = args.workdir is None
    workdir = tempfile.mkdtemp(prefix="repro-chaos-") if temporary else args.workdir
    task_keys = _plan_task_keys(plan) or ["default", "balanced"]
    config = _Config(n_jobs=args.jobs, seed=plan.seed, allocators=tuple(task_keys))
    try:
        report = run_chaos(plan, workdir, config=config, workers=args.workers)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    if temporary:
        if report.ok:
            shutil.rmtree(workdir, ignore_errors=True)
        else:
            # Keep the evidence around for a failed run.
            print(f"artifacts kept in {workdir}", file=sys.stderr)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _dispatch(build_parser().parse_args(argv))
    except TaskFailedError as exc:
        # A cell raised (and exhausted its retries): the run happened
        # but cannot report every cell, which is exit 1, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); the output
        # already produced is all the consumer wanted. Detach stdout so
        # the interpreter's exit-time flush does not raise again.
        devnull = open(os.devnull, "w")
        os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "topology":
        return _cmd_topology(args)
    if args.command == "validate-conf":
        return _cmd_validate_conf(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "verify-run":
        return _cmd_verify_run(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "tournament":
        return _cmd_tournament(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
