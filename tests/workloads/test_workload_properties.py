"""Property-based tests over the workload toolchain (SWF, ops, export)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import two_level_tree
from repro.scheduler import simulate
from repro.cluster import Job
from repro.workloads import (
    TraceJob,
    concatenate,
    filter_sizes,
    parse_swf,
    renumber,
    scale_load,
    slice_window,
    swf_to_trace,
    validate_trace,
)
from repro.workloads.export import result_to_swf


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    t = 0.0
    out = []
    for i in range(n):
        t += draw(st.floats(min_value=0.0, max_value=500.0))
        out.append(
            TraceJob(
                job_id=i + 1,
                submit_time=t,
                nodes=draw(st.integers(min_value=1, max_value=64)),
                runtime=draw(st.floats(min_value=1.0, max_value=5000.0)),
            )
        )
    return out


@given(traces())
@settings(max_examples=150, deadline=None)
def test_renumber_preserves_everything_but_ids(trace):
    out = renumber(trace)
    assert validate_trace(out) == []
    assert sorted(t.nodes for t in out) == sorted(t.nodes for t in trace)
    assert [t.job_id for t in out] == list(range(1, len(trace) + 1))


@given(traces(), st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=150, deadline=None)
def test_scale_load_invertible(trace, factor):
    back = scale_load(scale_load(trace, factor), 1.0 / factor)
    for a, b in zip(trace, back):
        assert abs(a.submit_time - b.submit_time) < 1e-6 * max(a.submit_time, 1.0)


@given(traces())
@settings(max_examples=100, deadline=None)
def test_filter_then_concat_conserves_jobs(trace):
    small = filter_sizes(trace, max_nodes=16)
    big = filter_sizes(trace, min_nodes=17)
    assert len(small) + len(big) == len(trace)
    combined = concatenate(small, big)
    assert len(combined) == len(trace)
    assert validate_trace(combined) == []


@given(traces(), st.floats(min_value=0.0, max_value=2000.0),
       st.floats(min_value=1.0, max_value=2000.0))
@settings(max_examples=100, deadline=None)
def test_slice_window_subset(trace, start, width):
    kept = slice_window(trace, start, start + width, rebase=False)
    ids = {t.job_id for t in kept}
    for t in trace:
        inside = start <= t.submit_time < start + width
        assert (t.job_id in ids) == inside


@given(traces())
@settings(max_examples=50, deadline=None)
def test_simulation_to_swf_round_trip(trace):
    """Any simulated result exports to SWF that parses back with the
    same job count and non-negative waits."""
    topo = two_level_tree(2, 4)
    jobs = [
        Job(t.job_id, t.submit_time, min(t.nodes, 8), t.runtime)
        for t in trace
    ]
    result = simulate(topo, jobs, "default")
    records = parse_swf(result_to_swf(result))
    assert len(records) == len(jobs)
    assert all(r.wait_time >= 0 for r in records)
    back = swf_to_trace(records)
    assert len(back) == len(jobs)
