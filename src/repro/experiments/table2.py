"""Table 2 — balanced allocation worked example (paper §4.2).

A communication-intensive job requests 512 nodes; seven leaf switches
have 160/150/100/80/70/50/40 nodes free. The paper's balanced algorithm
allocates 128/128/64/64/64/32/32. This module reconstructs the exact
scenario on a real topology and runs the actual allocator — the
expected output is deterministic and asserted in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..allocation.balanced import BalancedAllocator
from ..cluster.job import CommComponent, Job, JobKind
from ..cluster.state import ClusterState
from ..patterns.recursive_doubling import RecursiveDoubling
from ..topology.builders import tree_from_leaf_sizes
from .report import render_table

__all__ = [
    "PAPER_FREE_NODES",
    "PAPER_ALLOCATED",
    "Table2Result",
    "run_table2",
    "build_table2_state",
]

PAPER_FREE_NODES: Tuple[int, ...] = (160, 150, 100, 80, 70, 50, 40)
PAPER_ALLOCATED: Tuple[int, ...] = (128, 128, 64, 64, 64, 32, 32)
REQUEST = 512
LEAF_CAPACITY = 200  # any capacity >= max free count works


def build_table2_state() -> Tuple[ClusterState, Job]:
    """A 7-leaf cluster occupied so the leaves have the paper's free counts."""
    topo = tree_from_leaf_sizes([LEAF_CAPACITY] * len(PAPER_FREE_NODES))
    state = ClusterState(topo)
    filler_id = 1000
    for leaf, free in enumerate(PAPER_FREE_NODES):
        busy = LEAF_CAPACITY - free
        if busy:
            nodes = np.arange(
                topo.leaf_node_offset[leaf], topo.leaf_node_offset[leaf] + busy
            )
            state.allocate(filler_id, nodes, JobKind.COMPUTE)
            filler_id += 1
    job = Job(
        job_id=1,
        submit_time=0.0,
        nodes=REQUEST,
        runtime=3600.0,
        kind=JobKind.COMM,
        comm=(CommComponent(RecursiveDoubling(), 0.7),),
    )
    return state, job


@dataclass
class Table2Result:
    """Worked allocation example (§4.2): leaf frees and chosen counts."""
    free_nodes: Tuple[int, ...]
    allocated: Tuple[int, ...]

    @property
    def matches_paper(self) -> bool:
        """True when the allocation equals the paper's worked answer."""
        return self.allocated == PAPER_ALLOCATED

    def render(self) -> str:
        """ASCII table of free and allocated nodes per leaf."""
        headers = ["leaf"] + [f"L[{i+1}]" for i in range(len(self.free_nodes))]
        rows = [
            ["free nodes", *self.free_nodes],
            ["allocated (measured)", *self.allocated],
            ["allocated (paper)", *PAPER_ALLOCATED],
        ]
        table = render_table(headers, rows, title="Table 2: balanced allocation of a 512-node job")
        status = "exact match" if self.matches_paper else "MISMATCH"
        return f"{table}\nPaper comparison: {status}"


def run_table2() -> Table2Result:
    """Run the balanced allocator on the paper's exact scenario."""
    state, job = build_table2_state()
    takes = BalancedAllocator().allocate(state, job)
    per_leaf = dict(zip(takes.leaves.tolist(), takes.counts.tolist()))
    allocated = tuple(per_leaf.get(k, 0) for k in range(len(PAPER_FREE_NODES)))
    return Table2Result(free_nodes=PAPER_FREE_NODES, allocated=allocated)
