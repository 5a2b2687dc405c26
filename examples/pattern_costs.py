#!/usr/bin/env python
"""Price every communication pattern under every allocation strategy.

Walks the Eq. 2-6 cost model directly: one 64-node communication-
intensive job on a partially loaded three-rack cluster, priced for each
registered collective pattern (including the paper's §7 future-work
ring and stencil) under each allocator's placement. Shows *why* the
balanced algorithm wins: the expensive late steps of vector-doubling
collectives become intra-switch.

Run:
    python examples/pattern_costs.py
"""

from repro import (
    ClusterState,
    CommComponent,
    CostModel,
    Job,
    JobKind,
    get_allocator,
    get_pattern,
)
from repro.experiments.report import render_table
from repro.patterns import pattern_names
from repro.topology import tree_from_leaf_sizes


def main() -> None:
    topo = tree_from_leaf_sizes([40, 36, 48])
    model = CostModel()

    # background comm-intensive load on rack 0
    base = ClusterState(topo)
    base.allocate(100, list(range(0, 20)), JobKind.COMM)
    print(f"Cluster: racks of {topo.leaf_sizes.tolist()} nodes; "
          "rack0 half-filled with a comm-intensive job\n")

    headers = ["pattern"] + ["default", "greedy", "balanced", "adaptive"]
    rows = []
    for pname in pattern_names():
        pattern = get_pattern(pname)
        job = Job(1, 0.0, 64, 3600.0, JobKind.COMM,
                  (CommComponent(pattern, 0.7),))
        row = [pname]
        for aname in ("default", "greedy", "balanced", "adaptive"):
            trial = base.copy()
            takes = get_allocator(aname).allocate(trial, job)
            trial.allocate(job.job_id, takes, job.kind)
            row.append(model.allocation_cost(trial, takes, pattern))
        rows.append(row)
    print(render_table(headers, rows,
                       title="Eq. 6 communication cost of a 64-node job (lower is better)"))
    print("\nBalanced/adaptive should dominate on rd/rhvd (power-of-two step "
          "structure); ring gains less (only neighbour pairs cross switches).")


if __name__ == "__main__":
    main()
