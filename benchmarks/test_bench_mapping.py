"""Bench: §7 process-mapping extension — what rank reordering buys.

The paper's conclusion names process mapping after allocation as future
work. This bench quantifies it on the two rank orders SLURM actually
produces (``--distribution=block|cyclic``): the same balanced node set
is priced with block ranks (contiguous per leaf) and with cyclic ranks
(round-robin across leaves), then the leaf-block and local-search
mappers are applied. Expectation: cyclic distribution is expensive,
mapping recovers essentially the block cost, and mapping a block
layout is a no-op (the paper's allocators already emit it).
"""

import numpy as np

from repro.allocation import get_allocator
from repro.cluster import ClusterState, CommComponent, Job, JobKind
from repro.cost import CostModel
from repro.experiments.report import render_table
from repro.mapping import leaf_block_mapping, local_search_mapping
from repro.patterns import RecursiveHalvingVectorDoubling
from repro.topology import tree_from_leaf_sizes


def _cyclic(topology, nodes: np.ndarray) -> np.ndarray:
    """Reorder ranks round-robin across leaf *switches* — the switch-level
    analogue of ``repro.distribution.cyclic_distribution`` (which cycles
    over nodes; here the job has one rank per node, so the adversarial
    layout cycles over switches instead)."""
    leaves = topology.leaf_of_node[nodes]
    buckets = [nodes[leaves == leaf] for leaf in np.unique(leaves)]
    out = []
    i = 0
    while any(i < len(b) for b in buckets):
        for b in buckets:
            if i < len(b):
                out.append(b[i])
        i += 1
    return np.array(out, dtype=np.int64)


def test_bench_mapping_gains(benchmark, record_report):
    topo = tree_from_leaf_sizes([32, 32, 32, 32])
    state = ClusterState(topo)
    job = Job(1, 0.0, 64, 3600.0, JobKind.COMM,
              (CommComponent(RecursiveHalvingVectorDoubling(), 0.7),))
    model = CostModel()
    pattern = job.comm[0].pattern

    def run():
        trial = state.copy()
        nodes = trial.allocate(job.job_id, get_allocator("balanced").allocate(trial, job), job.kind)
        block_order = nodes
        cyclic_order = _cyclic(topo, nodes)
        out = {}
        for name, order in (("block", block_order), ("cyclic", cyclic_order)):
            raw = model.allocation_cost(trial, order, pattern)
            lb = leaf_block_mapping(trial, order, pattern, model)
            ls = local_search_mapping(trial, lb.nodes, pattern, model,
                                      max_iters=300, seed=1)
            out[name] = (raw, lb.cost_after, ls.cost_after)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name, raw, lb, ls, 0.0 if raw == 0 else 100.0 * (raw - ls) / raw]
        for name, (raw, lb, ls) in out.items()
    ]
    report = render_table(
        ["rank distribution", "cost raw", "cost leaf-block", "cost +local search", "gain %"],
        rows,
        title="Extension: §7 process mapping (balanced 64-node allocation, RHVD)",
    )
    record_report("mapping", report)

    cyc_raw, cyc_lb, cyc_ls = out["cyclic"]
    blk_raw, blk_lb, blk_ls = out["block"]
    assert cyc_raw > blk_raw, "cyclic rank order must cost more than block"
    assert cyc_lb <= blk_raw * 1.001, "leaf-block mapping must recover block cost"
    assert blk_ls <= blk_raw, "mapping never regresses a block layout"
