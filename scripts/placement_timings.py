"""Time a placement's select, allocate, release and Eq. 6 by take count.

A placement is a :class:`repro.cluster.Takes`: how many nodes each leaf
switch gives. A request that one leaf can hold gets one take, and every
consumer of the placement takes a scalar branch for it; a larger request
gets several takes and goes through the vectorized path. This script
builds a half-occupied ``theta_like`` and ``mira_like`` state (seeded
background jobs, a quarter of them communication-intensive), then times
in a hot loop, per call:

* **select** — ``DefaultSlurmAllocator.allocate`` with the state's
  version-tagged caches cleared first, as after the mutation that
  precedes every select of a replay;
* **allocate** / **release** — ``ClusterState.allocate`` of those takes
  and the ``release`` that undoes it, each timed on its own;
* **Eq. 6** — ``CostModel.allocation_cost`` of the takes under rhvd
  with the cost cache cleared first (a miss, as in a replay).

Run it from the repository root::

    PYTHONPATH=src python scripts/placement_timings.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.allocation import get_allocator
from repro.cluster import ClusterState, CommComponent, Job, JobKind
from repro.cost import CostModel
from repro.patterns import RecursiveHalvingVectorDoubling
from repro.topology import mira_like, theta_like

#: (machine, job size): one leaf holds the first request of each
#: machine, the second spans several leaves
CASES = [("theta_like", 8), ("theta_like", 64), ("mira_like", 128), ("mira_like", 2048)]

#: per-call loop length; best of REPEAT loops is reported
LOOPS = 2000
REPEAT = 5


def _background(topo, seed: int = 0) -> ClusterState:
    """Half the nodes busy in 16-node jobs, every fourth one COMM."""
    state = ClusterState(topo)
    rng = np.random.default_rng(seed)
    busy = rng.choice(topo.n_nodes, size=topo.n_nodes // 2, replace=False)
    for k, start in enumerate(range(0, busy.size - 15, 16)):
        kind = JobKind.COMM if k % 4 == 0 else JobKind.COMPUTE
        state.allocate(10_000 + k, busy[start : start + 16], kind)
    return state


def _best_us(loop) -> float:
    """Best-of-``REPEAT`` microseconds per iteration of ``loop(LOOPS)``."""
    return min(loop(LOOPS) for _ in range(REPEAT)) / LOOPS * 1e6


def time_case(state: ClusterState, size: int):
    """``(takes, select, allocate, release, Eq. 6)`` for one request size."""
    allocator = get_allocator("default")
    pattern = RecursiveHalvingVectorDoubling()
    job = Job(1, 0.0, size, 3600.0, JobKind.COMM, (CommComponent(pattern, 0.5),))
    takes = allocator.allocate(state, job)
    model = CostModel()
    clock = time.perf_counter

    def select(n):
        derived = state._derived_cache
        spent = 0.0
        for _ in range(n):
            derived.clear()
            t0 = clock()
            allocator.allocate(state, job)
            spent += clock() - t0
        return spent

    def mutate(timed):
        def loop(n):
            spent = 0.0
            for _ in range(n):
                t0 = clock()
                state.allocate(1, takes, JobKind.COMM)
                t1 = clock()
                state.release(1)
                t2 = clock()
                spent += t1 - t0 if timed == "allocate" else t2 - t1
            return spent

        return loop

    trial = state.copy()
    trial.allocate(1, takes, JobKind.COMM)

    def eq6(n):
        cache = trial._cost_cache
        spent = 0.0
        for _ in range(n):
            cache.clear()
            t0 = clock()
            model.allocation_cost(trial, takes, pattern)
            spent += clock() - t0
        return spent

    return (
        takes,
        _best_us(select),
        _best_us(mutate("allocate")),
        _best_us(mutate("release")),
        _best_us(eq6),
    )


def main() -> None:
    """Print one row per (machine, request size)."""
    states = {"theta_like": _background(theta_like()), "mira_like": _background(mira_like())}
    print("| machine | ranks | takes | select (us) | allocate (us) | release (us) | Eq. 6 (us) |")
    print("|---|---|---|---|---|---|---|")
    for machine, size in CASES:
        takes, t_sel, t_alloc, t_rel, t_eq6 = time_case(states[machine], size)
        print(
            f"| {machine} | {size:,} | {takes.leaves.size} | {t_sel:.1f} "
            f"| {t_alloc:.1f} | {t_rel:.1f} | {t_eq6:.1f} |"
        )


if __name__ == "__main__":
    main()
