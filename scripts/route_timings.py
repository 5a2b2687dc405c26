"""Time both routes of the Eq. 6 leaf-pair kernel on Theta and Mira takes.

``repro.cost.leafpair.leaf_pair_cost`` prices takes from candidate
rank pairs taken from one of two routes: every rank pair of the
pattern, or one representative rank per block region between leaf
runs. ``PatternPlan.run_route`` takes the run route when
``blocks x (2 runs + 1) x _RUN_ROUTE_FACTOR`` is below the rank-pair
count. This script forces each route in turn on recursive
halving/vector doubling takes that fill whole leaves, priced on the
state that holds them, times the whole kernel call in a hot loop (the
pattern plan cached, as in a replay) and prints which route the rule
picks::

    PYTHONPATH=src python scripts/route_timings.py
"""

from __future__ import annotations

import timeit
from unittest import mock

import numpy as np

from repro.cluster import ClusterState, JobKind, Takes
from repro.cost import CostModel, leafpair
from repro.patterns import RecursiveHalvingVectorDoubling
from repro.topology import mira_like, theta_like

#: (machine, ranks, leaves): 8-node Theta leaves hold the 512/64 case
CASES = [
    ("Theta", 8, 1),
    ("Theta", 128, 8),
    ("Theta", 256, 16),
    ("Theta", 512, 32),
    ("Theta", 512, 64),
    ("Mira", 2048, 6),
    ("Mira", 8192, 23),
]


def _time_us(fn, repeat: int = 7) -> float:
    """Best-of-``repeat`` microseconds per call of ``fn``."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat, number)) / number * 1e6


def main() -> None:
    """Print one row per case: both routes' times and the rule's choice."""
    machines = {"Theta": theta_like(), "Mira": mira_like()}
    pattern = RecursiveHalvingVectorDoubling()
    model = CostModel()
    print("| takes (ranks / leaves) | rank-pair route (us) | run route (us) | route the rule takes |")
    print("|---|---|---|---|")
    for machine, nranks, n_take in CASES:
        topo = machines[machine]
        per_leaf = -(-nranks // n_take)
        leaves = np.flatnonzero(topo.leaf_sizes >= per_leaf)[:n_take]
        counts = np.full(n_take, per_leaf, dtype=np.int64)
        counts[-1] = nranks - per_leaf * (n_take - 1)
        state = ClusterState(topo)
        state.allocate(1, Takes(leaves, counts), JobKind.COMM)
        plan = leafpair.pattern_plan(pattern, nranks)

        def call():
            # CostModel's own call for takes of several leaves
            return leafpair.leaf_pair_cost(
                state,
                leaves.repeat(counts),
                plan,
                model.contention,
                model.weight_by_msize,
                bounds=counts[:-1].cumsum(),
            )

        times = {}
        for route, factor in (("pairs", 10**12), ("runs", 0)):
            with mock.patch.object(leafpair, "_RUN_ROUTE_FACTOR", factor):
                times[route] = _time_us(call)
        chosen = "runs" if plan.run_route(n_take) else "rank pairs"
        print(
            f"| {machine} {nranks:,} / {n_take} | {times['pairs']:.1f} "
            f"| {times['runs']:.1f} | {chosen} |"
        )


if __name__ == "__main__":
    main()
