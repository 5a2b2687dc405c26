"""Print the sha256 of mid-run engine checkpoints, one line per allocator.

A change that must not alter what the scheduler does can be checked by
running this against two checkouts and diffing the output::

    PYTHONPATH=src python scripts/checkpoint_digests.py > new.txt
    PYTHONPATH=/path/to/base/src python scripts/checkpoint_digests.py > base.txt
    diff base.txt new.txt

Every registered allocator replays the same seeded Theta log (synthetic
``THETA_SPEC`` jobs, 50% communication-intensive running recursive
halving/vector doubling, EASY backfill) under node faults with the
``requeue`` interrupt policy, and is paused after each of the given
batch counts. A checkpoint holds the engine's whole state (queue,
running jobs and their node ids, cluster arrays, records), so equal
digests mean equal runs up to that point. The last column counts the
jobs interrupted by a fault so far.
"""

from __future__ import annotations

import argparse
import hashlib
import tempfile
from pathlib import Path

from repro.allocation import allocator_names
from repro.faults import FaultGeneratorConfig, generate_faults
from repro.scheduler.engine import EngineConfig, SchedulerEngine
from repro.scheduler.serialize import load_snapshot
from repro.topology.builders import theta_like
from repro.workloads import assign_kinds, generate_log, single_pattern_mix
from repro.workloads.logs import THETA_SPEC


def main() -> None:
    """Replay, pause, and print one digest per (allocator, batch count)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pause", type=int, nargs="+", default=[400, 1500])
    args = parser.parse_args()

    topology = theta_like()
    jobs = assign_kinds(
        generate_log(THETA_SPEC, args.jobs, args.seed),
        percent_comm=50.0,
        mix=single_pattern_mix("rhvd"),
        seed=args.seed + 2,
    )
    span = jobs[-1].submit_time - jobs[0].submit_time
    faults = generate_faults(
        topology, FaultGeneratorConfig(rate=2.0, horizon=1.5 * span, seed=args.seed + 7)
    )
    config = EngineConfig(policy="backfill", interrupt_policy="requeue")
    with tempfile.TemporaryDirectory() as tmp:
        for name in allocator_names():
            for pause in args.pause:
                path = Path(tmp) / f"{name}-{pause}.json"
                SchedulerEngine(topology, name, config).run(
                    jobs, faults=faults, stop_after=pause, checkpoint_path=str(path)
                )
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                interrupted = len(load_snapshot(str(path))["books"])
                print(f"{name:12s} {pause:6d} {digest} {interrupted:4d}")


if __name__ == "__main__":
    main()
