"""Golden digests of ``SlurmCluster.history`` over an allocator x policy grid.

``data/golden_histories.json`` holds, per cell, the sha256 of the
canonical JSON of every completed or failed job's record, in history
order: start/finish times, node ids, Eq. 6 cost dicts, requeue counts
and wasted node-seconds. Each cell replays the same seeded script of
``sbatch``, ``advance``, ``scontrol_down`` and ``scontrol_resume``
calls, resumes every node still down and ends with ``drain()``. The
grid is two trees x every registered allocator x the three interruption
policies.

Regenerate (only when controller results change on purpose)::

    PYTHONPATH=src python tests/slurm/test_golden_histories.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.allocation import allocator_names
from repro.cost.leafpair import clear_leaf_pair_cache
from repro.scheduler.serialize import record_to_dict
from repro.slurm import SlurmCluster
from repro.topology import three_level_tree, tree_from_leaf_sizes

FIXTURE = Path(__file__).parent / "data" / "golden_histories.json"

TREES = ("unequal", "three-level")
INTERRUPT_POLICIES = ("requeue", "checkpoint", "abandon")
PATTERNS = ("rhvd", "rd", "binomial", "ring", "stencil2d")
N_STEPS = 80
SEED = 3


def make_tree(name):
    """The two grid trees, 36 nodes each."""
    if name == "unequal":
        return tree_from_leaf_sizes([6, 8, 4, 10, 8])
    return three_level_tree(n_pods=2, leaves_per_pod=3, nodes_per_leaf=6)


def make_script(n_nodes, seed=SEED):
    """A seeded command list that does not depend on the cluster's answers."""
    rng = np.random.default_rng(seed)
    script = []
    down = []
    for _ in range(N_STEPS):
        u = rng.random()
        if u < 0.5:
            kind = ("comm", "comm", "compute", "io")[rng.integers(4)]
            nodes = int(rng.integers(2 if kind == "comm" else 1, n_nodes // 2 + 1))
            script.append(("sbatch", dict(
                nodes=nodes,
                runtime=float(rng.uniform(30.0, 900.0)),
                kind=kind,
                pattern=PATTERNS[rng.integers(len(PATTERNS))] if kind == "comm" else None,
                comm_fraction=float(rng.uniform(0.2, 0.9)),
            )))
        elif u < 0.8:
            script.append(("advance", float(rng.uniform(10.0, 400.0))))
        elif u < 0.92 or not down:
            nodes = sorted(int(n) for n in rng.choice(n_nodes, rng.integers(1, 4), replace=False))
            down.append(nodes)
            script.append(("scontrol_down", nodes))
        else:
            script.append(("scontrol_resume", down.pop(0)))
    for nodes in down:
        script.append(("scontrol_resume", nodes))
    return script


def cells():
    """Every ``(tree, allocator, interrupt policy)`` key of the grid."""
    return [
        (tree, allocator, policy)
        for tree in TREES
        for allocator in allocator_names()
        for policy in INTERRUPT_POLICIES
    ]


def cell_id(cell):
    """Fixture key of one cell."""
    return "/".join(cell)


def run_cell(cell):
    """Play the script on a fresh cluster; returns its history."""
    tree, allocator, policy = cell
    topo = make_tree(tree)
    clear_leaf_pair_cache()
    cluster = SlurmCluster(
        topo, allocator, interrupt_policy=policy, checkpoint_interval=120.0
    )
    for command, arg in make_script(topo.n_nodes):
        if command == "sbatch":
            cluster.sbatch(**arg)
        else:
            getattr(cluster, command)(arg)
    cluster.drain()
    return cluster.history


def digest(history):
    """sha256 of the canonical JSON of a record list."""
    canon = json.dumps([record_to_dict(r) for r in history], sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_grid(golden):
    assert sorted(golden) == sorted(cell_id(c) for c in cells())


@pytest.mark.parametrize("cell", cells(), ids=cell_id)
def test_history_matches_golden_digest(cell, golden):
    assert digest(run_cell(cell)) == golden[cell_id(cell)]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    fixture = {cell_id(c): digest(run_cell(c)) for c in cells()}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
