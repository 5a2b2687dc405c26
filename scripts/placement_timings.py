"""Time a placement's switch search, select, allocate, release and Eq. 6 by take count.

A placement is a :class:`repro.cluster.Takes`: how many nodes each leaf
switch gives. A request that one leaf can hold gets one take, and every
consumer of the placement takes a scalar branch for it; a larger request
gets several takes and goes through the vectorized path. This script
builds a half-occupied ``theta_like`` and ``mira_like`` state (seeded
background jobs, a quarter of them communication-intensive), then times
in a hot loop, per call:

* **switch search** — ``find_lowest_level_switch`` with the state's
  version-tagged caches cleared first and ``total_free`` read again,
  as in a select after a mutation (the allocator's precheck reads
  ``total_free`` before the search);
* **select** — the allocator's ``allocate`` (``default``, or
  ``greedy`` for the row shaped like a median multi-take start of an
  overloaded Theta log: a communication-intensive job over about 13
  spread leaves) with the state's version-tagged caches cleared first,
  as after the mutation that precedes every select of a replay;
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

from repro.allocation import find_lowest_level_switch, get_allocator
from repro.cluster import ClusterState, CommComponent, Job, JobKind
from repro.cost import CostModel
from repro.patterns import RecursiveHalvingVectorDoubling
from repro.topology import mira_like, theta_like

#: (machine, job size, allocator): one leaf holds the first request of
#: each machine, the others span several leaves; the greedy Theta row is
#: shaped like the median multi-take start of an overloaded Theta log
CASES = [
    ("theta_like", 8, "default"),
    ("theta_like", 64, "default"),
    ("theta_like", 152, "greedy"),
    ("mira_like", 128, "default"),
    ("mira_like", 2048, "default"),
]

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


def time_case(state: ClusterState, size: int, allocator_name: str):
    """``(takes, search, select, allocate, release, Eq. 6)`` for one request."""
    allocator = get_allocator(allocator_name)
    pattern = RecursiveHalvingVectorDoubling()
    job = Job(1, 0.0, size, 3600.0, JobKind.COMM, (CommComponent(pattern, 0.5),))
    takes = allocator.allocate(state, job)
    model = CostModel()
    clock = time.perf_counter

    def search(n):
        derived = state._derived_cache
        spent = 0.0
        for _ in range(n):
            derived.clear()
            state.total_free
            t0 = clock()
            find_lowest_level_switch(state, size)
            spent += clock() - t0
        return spent

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
        _best_us(search),
        _best_us(select),
        _best_us(mutate("allocate")),
        _best_us(mutate("release")),
        _best_us(eq6),
    )


def main() -> None:
    """Print one row per (machine, request size, allocator)."""
    states = {"theta_like": _background(theta_like()), "mira_like": _background(mira_like())}
    print(
        "| machine | ranks | allocator | takes | switch search (us) | select (us) "
        "| allocate (us) | release (us) | Eq. 6 (us) |"
    )
    print("|---|---|---|---|---|---|---|---|---|")
    for machine, size, allocator_name in CASES:
        takes, *times = time_case(states[machine], size, allocator_name)
        cells = " | ".join(f"{t:.1f}" for t in times)
        print(f"| {machine} | {size:,} | {allocator_name} | {takes.leaves.size} | {cells} |")


if __name__ == "__main__":
    main()
