#!/usr/bin/env python
"""Author a SLURM ``topology.conf``, then watch each allocator place a job.

Shows the substrate the paper builds on (§3.1-3.2): a fat-tree described
in SLURM's configuration syntax, the lowest-level-switch search, and how
the four algorithms spread one communication-intensive job across leaf
switches differently — including the Table 2 power-of-two signature of
the balanced algorithm.

Run:
    python examples/custom_topology.py
"""

import numpy as np

from repro import (
    ClusterState,
    CommComponent,
    Job,
    JobKind,
    PAPER_ALLOCATORS,
    RecursiveHalvingVectorDoubling,
    get_allocator,
    parse_topology_conf,
    write_topology_conf,
)
from repro.experiments.report import render_table

CONF = """\
# Three racks of uneven size under one spine — resource fragmentation
# is what makes allocation interesting.
SwitchName=rack0 Nodes=node[0-19]
SwitchName=rack1 Nodes=node[20-31]
SwitchName=rack2 Nodes=node[32-47]
SwitchName=spine Switches=rack[0-2]
"""


def main() -> None:
    topo = parse_topology_conf(CONF)
    print(f"Parsed topology: {topo.n_nodes} nodes, {topo.n_leaves} leaf switches, "
          f"height {topo.height}")
    print("\nRound-tripped topology.conf:")
    print(write_topology_conf(topo))

    # Background load: a comm-intensive job on rack0, a compute job on rack1.
    state = ClusterState(topo)
    state.allocate(100, list(range(0, 10)), JobKind.COMM)
    state.allocate(101, list(range(20, 26)), JobKind.COMPUTE)
    print("Background: 10 comm-intensive nodes on rack0, 6 compute nodes on rack1")
    print(f"Eq. 1 communication ratios per rack: "
          f"{np.round(state.communication_ratio(), 3).tolist()}")

    job = Job(
        job_id=1,
        submit_time=0.0,
        nodes=24,
        runtime=3600.0,
        kind=JobKind.COMM,
        comm=(CommComponent(RecursiveHalvingVectorDoubling(), 0.7),),
    )
    rows = []
    for name in PAPER_ALLOCATORS:
        takes = get_allocator(name).allocate(state, job)  # nodes per rack, rank order
        order = np.argsort(takes.leaves)
        racks, counts = takes.leaves[order], takes.counts[order]
        placement = ", ".join(
            f"rack{r}: {c}" for r, c in zip(racks.tolist(), counts.tolist())
        )
        rows.append([name, placement])
    print()
    print(render_table(["allocator", "24-node comm job placement"], rows))
    print("\nNote the balanced allocator's power-of-two chunks per rack (§4.2).")


if __name__ == "__main__":
    main()
