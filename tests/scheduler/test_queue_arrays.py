"""The queue as arrays: JobQueue bookkeeping and the EASY scan's mask.

The EASY scan prefilters a long range of a :class:`JobQueue` with one
numpy mask and walks only the jobs it admits. Every result here is
checked against an EASY pass written out as a plain loop, with the
mask's size limit patched to 0 (mask always), to its real value and to
above any queue length (mask never).
"""

import math
import random
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.cluster import Job
from repro.faults import FaultGeneratorConfig, generate_faults
from repro.obs import runtime as obs_runtime
from repro.scheduler import queue_policy
from repro.scheduler.engine import EngineConfig, SchedulerEngine
from repro.scheduler.queue_policy import (
    EasyBackfillPolicy,
    EasyCarry,
    JobQueue,
    RunningJobView,
)
from repro.scheduler.serialize import result_to_dict
from repro.slurm import SlurmCluster
from repro.topology import theta_like, two_level_tree
from repro.validate import check_queue_arrays
from repro.workloads import TraceJob, assign_kinds, generate_log, single_pattern_mix
from repro.workloads.logs import THETA_SPEC

LIMIT = queue_policy._MASK_MIN_SCAN


def limits(n):
    """Mask always, the module's limit, and mask never (for ``n`` jobs)."""
    return (0, LIMIT, n + 1)


# ---------------------------------------------------------------------------
# the EASY pass written out
# ---------------------------------------------------------------------------


def reference_scan(now, jobs, lo, free, shadow, extra):
    picks = []
    for idx in range(lo, len(jobs)):
        job = jobs[idx]
        short = now + job.runtime <= shadow
        if job.nodes <= free and (short or job.nodes <= extra):
            picks.append(idx)
            free -= job.nodes
            if not short:
                extra -= job.nodes
    return picks, free, extra


def reference_begin(now, jobs, free, views):
    picks = []
    for idx, job in enumerate(jobs):
        if job.nodes > free:
            break
        picks.append(idx)
        free -= job.nodes
    head = len(picks)
    if head == len(jobs):
        return picks, EasyCarry(len(jobs), free, None, 0, empty=True)
    need = jobs[head].nodes
    accumulated = free
    for view in sorted(views, key=lambda v: v.finish_estimate):
        accumulated += view.nodes
        if accumulated >= need:
            shadow = view.finish_estimate
            more, free, extra = reference_scan(
                now, jobs, head + 1, free, shadow, accumulated - need
            )
            return picks + more, EasyCarry(len(jobs), free, shadow, extra, empty=False)
    return picks, EasyCarry(len(jobs), free, None, 0, empty=False)


def reference_extend(now, jobs, views, carry):
    if carry.empty:
        return reference_begin(now, jobs, carry.free_nodes, views)
    if carry.shadow is None:
        return [], EasyCarry(len(jobs), carry.free_nodes, None, 0, empty=False)
    picks, free, extra = reference_scan(
        now, jobs, carry.scanned, carry.free_nodes, carry.shadow, carry.extra
    )
    return picks, EasyCarry(len(jobs), free, carry.shadow, extra, empty=False)


def counted(call):
    """Run ``call()``; return its result and the policy's scan counters."""
    with obs_runtime.collecting() as rec:
        result = call()
    return (
        result,
        rec.counters.get("policy.jobs_scanned", 0),
        rec.counters.get("policy.jobs_picked", 0),
    )


# ---------------------------------------------------------------------------
# drawn scan cases
# ---------------------------------------------------------------------------

clocks = st.one_of(
    st.integers(0, 10**6), st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
)
gaps = st.one_of(
    st.integers(1, 5000), st.floats(0.25, 5000, allow_nan=False, allow_infinity=False)
)


def draw_jobs(draw, n, node_pool, runtime_pool):
    """``n`` jobs whose fields come from the pools, picked by a drawn seed."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return [
        Job(i, 0.0, rng.choice(node_pool), rng.choice(runtime_pool)) for i in range(n)
    ]


def tie_runtimes(now, gaps_):
    """Runtimes that end exactly at, just before and just after ``now + gap``."""
    out = [0, 1, 10**7]
    for gap in gaps_:
        out += [gap, math.nextafter(gap, 0.0), math.nextafter(gap, math.inf), gap / 2]
    return out


@st.composite
def begin_cases(draw):
    """A queue, a clock, the free count and running views for a full pass."""
    now = draw(clocks)
    free = draw(st.integers(0, 24))
    finishes = draw(st.lists(gaps, min_size=0, max_size=3))
    views = [
        RunningJobView(finish_estimate=now + gap, nodes=draw(st.integers(1, 16)))
        for gap in finishes
    ]
    node_pool = list(range(1, free + 3)) + [free + 8, 40]
    n = draw(st.integers(0, 3 * LIMIT))
    jobs = draw_jobs(draw, n, node_pool, tie_runtimes(now, finishes))
    return now, jobs, free, views


@st.composite
def extend_cases(draw):
    """A queue, a clock and a carry: extra above and below free, no reservation, empty."""
    now = draw(clocks)
    free = draw(st.integers(0, 24))
    gap = draw(gaps)
    extra = draw(st.one_of(st.integers(free, free + 8), st.integers(0, max(free - 1, 0))))
    n = draw(st.integers(0, 3 * LIMIT))
    scanned = draw(st.integers(0, n))
    kind = draw(st.sampled_from(["window", "window", "no-reservation", "empty"]))
    if kind == "window":
        carry = EasyCarry(scanned, free, now + gap, extra, empty=False)
    elif kind == "no-reservation":
        carry = EasyCarry(scanned, free, None, 0, empty=False)
    else:
        carry = EasyCarry(0, free, None, 0, empty=True)
    node_pool = [1, 2, free, free + 1, extra, extra + 1, max(free - 1, 1), 40]
    node_pool = [k for k in node_pool if k >= 1]
    jobs = draw_jobs(draw, n, node_pool, tie_runtimes(now, [gap]))
    views = [RunningJobView(finish_estimate=now + gap, nodes=draw(st.integers(1, 16)))]
    return now, jobs, views, carry


@settings(max_examples=60, deadline=None)
@given(begin_cases())
def test_begin_pass_matches_written_out_pass(case):
    now, jobs, free, views = case
    expected = reference_begin(now, jobs, free, views)
    for limit in limits(len(jobs)):
        with mock.patch.object(queue_policy, "_MASK_MIN_SCAN", limit):
            got, scanned, picked = counted(
                lambda: EasyBackfillPolicy().begin_pass(now, JobQueue(jobs), free, views)
            )
        assert got == expected
        assert scanned == len(jobs)
        assert picked == len(expected[0])
    # a plain list (what a standalone caller passes) walks, with the same result
    assert EasyBackfillPolicy().select_startable(now, list(jobs), free, views) == expected[0]


@settings(max_examples=60, deadline=None)
@given(extend_cases())
def test_extend_pass_matches_written_out_pass(case):
    now, jobs, views, carry = case
    expected = reference_extend(now, jobs, views, carry)
    if carry.empty:
        expected_scanned = len(jobs)
    elif carry.shadow is None:
        expected_scanned = 0
    else:
        expected_scanned = len(jobs) - carry.scanned
    for limit in limits(len(jobs)):
        with mock.patch.object(queue_policy, "_MASK_MIN_SCAN", limit):
            got, scanned, picked = counted(
                lambda: EasyBackfillPolicy().extend_pass(now, JobQueue(jobs), views, carry)
            )
        assert got == expected
        assert scanned == expected_scanned
        assert picked == len(expected[0])


def test_long_scan_takes_the_mask():
    """At the limit the scan reads the arrays; one job short of it, it does not."""
    jobs = [Job(i, 0.0, 1 + i % 3, 50.0 + i) for i in range(LIMIT + 1)]
    views = [RunningJobView(finish_estimate=120.0, nodes=8)]
    for n, masked in ((LIMIT + 1, True), (LIMIT, False)):
        queue = JobQueue([Job(0, 0.0, 9, 10.0)] + jobs[: n - 1])
        with mock.patch.object(
            queue_policy.np, "flatnonzero", wraps=queue_policy.np.flatnonzero
        ) as spy:
            picks, _ = EasyBackfillPolicy().begin_pass(0.0, queue, 4, views)
        assert spy.called is masked
        assert picks == reference_begin(0.0, list(queue), 4, views)[0]


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


def assert_in_step(queue, model):
    assert list(queue) == model
    assert len(queue) == len(model)
    assert queue.nodes.tolist() == [job.nodes for job in model]
    assert queue.runtime.tolist() == [float(job.runtime) for job in model]
    assert check_queue_arrays(queue) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 150), st.lists(st.integers(0, 40), max_size=25), st.integers(0, 2**32 - 1))
def test_append_and_take_keep_the_arrays_in_step(initial, steps, seed):
    """Odd steps append that many jobs, even steps take up to that many
    distinct indices in drawn order; growth past the initial capacity is
    covered by the 150-job start and the appends."""
    rng = random.Random(seed)
    next_id = iter(range(10**6))
    make = lambda: Job(next(next_id), 0.0, rng.randint(1, 64), rng.choice([1, 7.5, 3600.25]))
    model = [make() for _ in range(initial)]
    queue = JobQueue(model)
    assert_in_step(queue, model)
    for step in steps:
        if step % 2 or not model:
            for _ in range(step):
                job = make()
                queue.append(job)
                model.append(job)
        else:
            picks = rng.sample(range(len(model)), min(step, len(model)))
            assert queue.take(picks) == [model[i] for i in picks]
            model = [job for i, job in enumerate(model) if i not in set(picks)]
        assert_in_step(queue, model)


def test_job_queue_is_not_a_list():
    """List mutators that would skip the arrays do not exist."""
    queue = JobQueue([Job(1, 0.0, 2, 5.0)])
    assert not isinstance(queue, list)
    for name in ("insert", "pop", "remove", "extend", "__delitem__", "__setitem__", "__iadd__"):
        assert not hasattr(queue, name), name
    assert queue[0].job_id == 1 and queue[-1].job_id == 1


# ---------------------------------------------------------------------------
# the engine and the controller
# ---------------------------------------------------------------------------


def integer_second_theta(n_jobs, seed):
    trace = [
        TraceJob(t.job_id, int(t.submit_time), t.nodes, max(1, round(t.runtime)))
        for t in generate_log(THETA_SPEC, n_jobs, seed)
    ]
    return assign_kinds(
        trace, percent_comm=50.0, mix=single_pattern_mix("rhvd"), seed=seed + 2
    )


def test_engine_records_do_not_depend_on_the_mask():
    """An integer-second Theta replay whose queue passes the limit, with node
    faults under requeue, gives the same records with the mask always on,
    at its limit and never on."""
    topology = theta_like()
    jobs = integer_second_theta(2000, seed=0)
    span = jobs[-1].submit_time - jobs[0].submit_time
    faults = generate_faults(
        topology, FaultGeneratorConfig(rate=2.0, horizon=1.5 * span, seed=7)
    )
    config = EngineConfig(policy="backfill", interrupt_policy="requeue")
    longest = []
    scan = queue_policy._easy_scan

    def spy(now, queue, lo, *rest):
        longest.append(len(queue) - lo)
        return scan(now, queue, lo, *rest)

    results = []
    for limit in limits(10**9):
        with mock.patch.object(queue_policy, "_MASK_MIN_SCAN", limit), mock.patch.object(
            queue_policy, "_easy_scan", spy
        ):
            result = SchedulerEngine(topology, "greedy", config).run(jobs, faults=faults)
        results.append(result_to_dict(result))
    assert max(longest) >= LIMIT
    assert results[0]["records"]
    assert results[0] == results[1] == results[2]


def test_controller_pending_queue_stays_in_step():
    """sbatch appends, scancel and passes take; the arrays follow."""
    cluster = SlurmCluster(two_level_tree(n_leaves=2, nodes_per_leaf=4), policy="backfill")
    ids = [cluster.sbatch(nodes=1 + i % 5, runtime=100.0 + i) for i in range(LIMIT + 20)]
    pending = cluster._run.queue
    assert len(pending) >= LIMIT
    assert check_queue_arrays(pending) == []
    for job_id in ids[40:60]:
        cluster.scancel(job_id)
    assert check_queue_arrays(pending) == []
    cluster.advance(500.0)
    assert check_queue_arrays(pending) == []
    cluster.drain()
    assert len(pending) == 0
