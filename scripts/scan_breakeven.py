"""Time the EASY backfill scan walked job by job and prefiltered by a mask.

``repro.scheduler.queue_policy._MASK_MIN_SCAN`` is the scan length from
which a :class:`~repro.scheduler.queue_policy.JobQueue` is prefiltered
with one numpy mask before the exact per-job walk. This script measures
both sources of the same scan over the first ``n`` jobs of a seeded
Theta log, for several ``n``, and prints microseconds per scan::

    PYTHONPATH=src python scripts/scan_breakeven.py [--sizes 8 64 ...]

The scan is set up as on an overloaded log: about a third of the jobs
fit the free node count, none ends before the head's reservation and
no extra nodes are left, so nothing starts and both sources scan the
whole range (the walk job by job, the mask in one numpy expression).
"""

from __future__ import annotations

import argparse
import timeit
from unittest import mock

import numpy as np

from repro.scheduler import queue_policy
from repro.scheduler.queue_policy import JobQueue
from repro.workloads import generate_log
from repro.workloads.logs import THETA_SPEC


def _time_us(fn, repeat: int = 7) -> float:
    """Best-of-``repeat`` microseconds per call of ``fn``."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat, number)) / number * 1e6


def main() -> None:
    """Print one row per queue length: walk and mask time per scan."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[8, 16, 32, 64, 96, 128, 256, 1024, 2048]
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    jobs = generate_log(THETA_SPEC, max(args.sizes), args.seed)
    now = 1.0e6
    print("| jobs scanned | walk (us) | mask (us) |")
    print("|---|---|---|")
    for n in args.sizes:
        queue = JobQueue(jobs[:n])
        plain = list(queue)
        free = int(np.percentile(queue.nodes, 33))
        picks: list = []

        def walk():
            return queue_policy._easy_scan(now, plain, 0, free, now, 0, picks)

        def mask():
            return queue_policy._easy_scan(now, queue, 0, free, now, 0, picks)

        walk_us = _time_us(walk)
        with mock.patch.object(queue_policy, "_MASK_MIN_SCAN", 0):
            mask_us = _time_us(mask)
        assert not picks
        print(f"| {n:,} | {walk_us:.1f} | {mask_us:.1f} |")


if __name__ == "__main__":
    main()
