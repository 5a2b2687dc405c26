"""Format-v4 checkpoint files must keep resuming to their recorded results.

``data/checkpoint_v4_*.json`` are engine checkpoints written by the
format-v4 engine (commit 33f292e) over ``test_checkpoint``'s 25-job
trace with its node faults, each by::

    SchedulerEngine(make_topology(), allocator).run(
        make_jobs(), faults=make_faults(topo, jobs),
        stop_after=N, checkpoint_path=path)

========  ==========  ==  ========================================
fixture   allocator   N   arrivals still pending in the file
========  ==========  ==  ========================================
greedy    greedy       7  19 SUBMIT events on the heap
adaptive  adaptive     3  22 SUBMIT events on the heap
balanced  balanced    20   8 SUBMIT events on the heap
stream    adaptive    12  ``run(stream=iter(make_jobs()))``; cursor 10
========  ==========  ==  ========================================

``data/checkpoint_v4_digests.json`` holds the sha256 of
``json.dumps(result_to_dict(result), sort_keys=True)`` for each
uninterrupted run. The files are frozen: they stand for checkpoints
already on disk, so they are never regenerated.

The current engine writes format v5, which keeps a ``jobs`` run's
pending arrivals in an ``arrivals`` list instead of heap SUBMIT events;
a v4 file that is resumed, paused again and resumed must still reach
the recorded digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cost.leafpair import clear_leaf_pair_cache
from repro.scheduler.engine import SchedulerEngine
from repro.scheduler.serialize import dump_snapshot, load_snapshot, result_to_dict

from .test_checkpoint import make_faults, make_jobs, make_topology

DATA = Path(__file__).parent / "data"
FIXTURES = {
    "greedy": ("greedy", False),
    "adaptive": ("adaptive", False),
    "balanced": ("balanced", False),
    "stream": ("adaptive", True),
}
#: top-level keys of a v5 checkpoint of an untraced ``jobs`` run
V5_KEYS = {
    "kind", "format_version", "engine", "topology_conf", "heap", "next_seq",
    "running_entries", "running_refs", "queue", "records", "books",
    "batches_done", "stats", "state", "rng", "arrivals",
}


def digest(result):
    """sha256 of the canonical JSON of a simulation result."""
    canon = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


@pytest.fixture(scope="module")
def digests():
    return json.loads((DATA / "checkpoint_v4_digests.json").read_text())


def test_digests_cover_the_fixtures(digests):
    assert sorted(digests) == sorted(FIXTURES)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_uninterrupted_run_matches_recorded_digest(name, digests):
    allocator, streaming = FIXTURES[name]
    topo = make_topology()
    jobs = make_jobs()
    faults = make_faults(topo, jobs)
    clear_leaf_pair_cache()
    engine = SchedulerEngine(topo, allocator)
    if streaming:
        result = engine.run(stream=iter(jobs), faults=faults)
    else:
        result = engine.run(jobs, faults=faults)
    assert digest(result) == digests[name]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_v4_checkpoint_resumes_to_recorded_digest(name, digests):
    _, streaming = FIXTURES[name]
    data = load_snapshot(DATA / f"checkpoint_v4_{name}.json")
    assert data["format_version"] == 4
    clear_leaf_pair_cache()
    engine = SchedulerEngine.from_snapshot(data)
    stream = iter(make_jobs()) if streaming else None
    assert digest(engine.run(resume_from=data, stream=stream)) == digests[name]


@pytest.mark.parametrize("name", ["greedy", "adaptive", "balanced"])
def test_v4_checkpoint_repaused_as_v5(name, digests, tmp_path):
    data = load_snapshot(DATA / f"checkpoint_v4_{name}.json")
    clear_leaf_pair_cache()
    engine = SchedulerEngine.from_snapshot(data)
    assert engine.run(resume_from=data, stop_after=data["batches_done"] + 2) is None
    snap = engine.snapshot()
    assert snap["format_version"] == 5
    assert set(snap) == V5_KEYS
    assert snap["arrivals"]
    assert {e["payload"]["type"] for e in snap["heap"]} <= {"finish", "fault"}

    path = tmp_path / "v5.json"
    dump_snapshot(snap, path)
    v5 = load_snapshot(path)
    clear_leaf_pair_cache()
    result = SchedulerEngine.from_snapshot(v5).run(resume_from=v5)
    assert digest(result) == digests[name]
