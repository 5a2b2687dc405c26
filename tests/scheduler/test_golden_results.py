"""Golden result digests of whole simulations over a policy x allocator grid.

``data/golden_results.json`` holds, per cell, the sha256 of
``json.dumps(result_to_dict(result), sort_keys=True)``: every record's
start/finish times, node ids, Eq. 6 cost dicts, requeue counts and
wasted node-seconds, plus the unstarted jobs. The grid is
{fifo, backfill, conservative} x every registered allocator x
{fault-free, node faults under ``requeue``} on two trees: a two-level
tree with unequal leaves and a uniform three-level tree.

The digests were taken from the engine's reference configuration of the
time: a full scheduling pass per event batch (``force_full_pass``), the
allocators' per-leaf Python fill loops, sequential releases, and the
per-step Eq. 6 reduction. The generator asserted that the default
engine (incremental passes, vectorized fills, batched releases,
leaf-run Eq. 6 reduction) produced the same digest in every cell, so
the fixture pins the fast paths to that reference. The loop forms have
since been deleted; the generator now runs ``force_full_pass`` as the
reference and still asserts the default engine agrees.

Each cell is checked three ways: a straight run, a run paused mid-way
by ``stop_after``, restored with ``SchedulerEngine.from_snapshot`` and
resumed, and a run fed from ``run(stream=...)``.

Regenerate (only when scheduling results change on purpose)::

    PYTHONPATH=src python tests/scheduler/test_golden_results.py
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.allocation import allocator_names
from repro.cluster import CommComponent, Job, JobKind
from repro.cost.leafpair import clear_leaf_pair_cache
from repro.faults import FaultGeneratorConfig, generate_faults
from repro.patterns import get_pattern
from repro.scheduler.engine import EngineConfig, SchedulerEngine
from repro.scheduler.serialize import result_to_dict
from repro.topology import three_level_tree, tree_from_leaf_sizes
from repro.workloads import stream_trace

FIXTURE = Path(__file__).parent / "data" / "golden_results.json"

TREES = ("unequal", "three-level")
POLICIES = ("fifo", "backfill", "conservative")
FAULT_MODES = ("none", "requeue")
N_JOBS = 120
#: event batches before the checkpoint leg pauses: about half of the
#: shortest cell (240 batches, one per submit and finish)
STOP_AFTER = 120


def make_tree(name):
    """The two grid trees, 36 nodes each."""
    if name == "unequal":
        return tree_from_leaf_sizes([6, 8, 4, 10, 8])
    return three_level_tree(n_pods=2, leaves_per_pod=3, nodes_per_leaf=6)


@functools.lru_cache(maxsize=None)
def make_jobs(n_nodes, seed=5):
    """A seeded trace: about half comm (``rhvd``), a fifth I/O, the rest compute."""
    rhvd = (CommComponent(get_pattern("rhvd"), 0.5),)
    rng = np.random.default_rng(seed)
    jobs = []
    for t in stream_trace(
        N_JOBS, seed=seed, max_nodes=n_nodes, min_exp=0, max_exp=5,
        runtime_median_s=900.0, mean_interarrival_s=60.0,
    ):
        u = rng.random()
        if u < 0.5 and t.nodes > 1:
            kind, comm = JobKind.COMM, rhvd
        elif u < 0.7:
            kind, comm = JobKind.IO, ()
        else:
            kind, comm = JobKind.COMPUTE, ()
        jobs.append(Job(t.job_id, t.submit_time, t.nodes, t.runtime, kind, comm))
    # a tuple of frozen jobs, so every cell can share the cached trace
    return tuple(jobs)


def make_faults(topo, jobs, mode):
    """Node/switch failures at 3 per hour while jobs arrive, or none."""
    if mode == "none":
        return None
    horizon = 1.5 * max(j.submit_time for j in jobs) + 1000.0
    return generate_faults(
        topo, FaultGeneratorConfig(rate=3.0, horizon=horizon, seed=11)
    )


def cells():
    """Every ``(tree, policy, allocator, faults)`` key of the grid."""
    return [
        (tree, policy, allocator, faults)
        for tree in TREES
        for policy in POLICIES
        for allocator in allocator_names()
        for faults in FAULT_MODES
    ]


def cell_id(cell):
    """Fixture key of one cell."""
    return "/".join(cell)


def cell_inputs(cell, **config):
    """``(topology, jobs, faults, EngineConfig)`` of one cell."""
    tree, policy, _, faults = cell
    topo = make_tree(tree)
    jobs = make_jobs(topo.n_nodes)
    return topo, jobs, make_faults(topo, jobs, faults), EngineConfig(
        policy=policy, interrupt_policy="requeue", **config
    )


def digest(result):
    """sha256 of the canonical JSON of a simulation result."""
    canon = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def run_straight(cell, **config):
    """One uninterrupted run of ``cell``."""
    topo, jobs, faults, cfg = cell_inputs(cell, **config)
    clear_leaf_pair_cache()
    return SchedulerEngine(topo, cell[2], cfg).run(jobs, faults=faults)


def run_resumed(cell):
    """``cell`` paused after :data:`STOP_AFTER` batches, then resumed."""
    topo, jobs, faults, cfg = cell_inputs(cell)
    clear_leaf_pair_cache()
    engine = SchedulerEngine(topo, cell[2], cfg)
    assert engine.run(jobs, faults=faults, stop_after=STOP_AFTER) is None
    snap = engine.snapshot()
    clear_leaf_pair_cache()
    return SchedulerEngine.from_snapshot(snap).run(resume_from=snap)


def run_streamed(cell):
    """``cell`` with arrivals pulled from an iterator."""
    topo, jobs, faults, cfg = cell_inputs(cell)
    clear_leaf_pair_cache()
    return SchedulerEngine(topo, cell[2], cfg).run(stream=iter(jobs), faults=faults)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_grid(golden):
    assert sorted(golden) == sorted(cell_id(c) for c in cells())


@pytest.mark.parametrize("cell", cells(), ids=cell_id)
def test_result_matches_golden_digest(cell, golden):
    want = golden[cell_id(cell)]
    assert digest(run_straight(cell)) == want, "straight run"
    assert digest(run_resumed(cell)) == want, "checkpoint/resume run"
    assert digest(run_streamed(cell)) == want, "streamed run"


def build_fixture():
    """Reference digests of every cell, checked against the default engine."""
    fixture = {}
    for cell in cells():
        reference = digest(run_straight(cell, force_full_pass=True))
        default = digest(run_straight(cell))
        assert default == reference, f"{cell_id(cell)}: default engine differs"
        fixture[cell_id(cell)] = reference
    return fixture


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(build_fixture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
