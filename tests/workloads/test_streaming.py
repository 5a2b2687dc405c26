"""Tests for the PR 9 streaming workload protocol.

Covers the constant-memory generators (:func:`stream_trace`,
:func:`assign_kinds_stream`, :func:`iter_swf`, the ``iter_*`` trace
ops) and the properties the streaming engine depends on: prefix
stability, non-decreasing submit order, and exact agreement with the
eager counterparts.
"""

import warnings

import pytest

from repro.workloads import (
    assign_kinds_stream,
    iter_swf,
    parse_swf,
    single_pattern_mix,
    stream_trace,
    swf_to_trace,
)
from repro.workloads.synthetic import STREAM_CHUNK_JOBS
from repro.workloads.trace_ops import (
    concatenate,
    filter_sizes,
    iter_filter_sizes,
    iter_renumber,
    iter_scale_load,
    iter_slice_window,
    renumber,
    scale_load,
    slice_window,
)
from repro.cluster import JobKind

SWF_SAMPLE = """\
; SWF header comment
; MaxNodes: 8
1 0 5 100 16 -1 -1 16 200 -1 1 1 1 -1 1 1 -1 -1
2 10 0 50 4 -1 -1 4 100 -1 1 2 1 -1 1 1 -1 -1
3 20 0 0 4 -1 -1 4 100 -1 0 2 1 -1 1 1 -1 -1
4 30 0 60 0 -1 -1 8 100 -1 1 3 1 -1 1 1 -1 -1
"""

SWF_BROKEN = SWF_SAMPLE + "not numeric at all\n1 2 3\n"


class TestStreamTrace:
    def test_basic_shape(self):
        trace = list(stream_trace(100, seed=1, max_nodes=64))
        assert len(trace) == 100
        assert [t.job_id for t in trace] == list(range(1, 101))
        assert trace[0].submit_time == 0.0
        assert all(t.nodes <= 64 for t in trace)

    def test_submits_non_decreasing(self):
        trace = list(stream_trace(500, seed=2, max_nodes=64))
        submits = [t.submit_time for t in trace]
        assert submits == sorted(submits)

    def test_prefix_stable(self):
        """The trace is a pure function of (seed, job index): a short
        trace equals the same-length prefix of a longer one."""
        short = list(stream_trace(50, seed=7, max_nodes=64))
        long = list(stream_trace(400, seed=7, max_nodes=64))
        assert long[:50] == short

    def test_prefix_stable_across_chunk_boundary(self):
        n = STREAM_CHUNK_JOBS + 10
        head = list(stream_trace(n, seed=0, max_nodes=64))
        again = list(stream_trace(n + 5, seed=0, max_nodes=64))
        assert again[:n] == head

    def test_seed_changes_trace(self):
        a = list(stream_trace(20, seed=0, max_nodes=64))
        b = list(stream_trace(20, seed=1, max_nodes=64))
        assert a != b

    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ValueError):
            list(stream_trace(0))


class TestAssignKindsStream:
    def test_deterministic_and_input_chunking_independent(self):
        trace = list(stream_trace(200, seed=3, max_nodes=64))
        mix = single_pattern_mix("rhvd", 0.5)
        a = list(assign_kinds_stream(iter(trace), percent_comm=80.0, mix=mix, seed=9))
        b = list(assign_kinds_stream(trace, percent_comm=80.0, mix=mix, seed=9))
        assert [(j.job_id, j.kind) for j in a] == [(j.job_id, j.kind) for j in b]

    def test_single_node_jobs_are_compute(self):
        trace = list(stream_trace(300, seed=4, max_nodes=64))
        mix = single_pattern_mix("rhvd", 0.5)
        jobs = list(
            assign_kinds_stream(trace, percent_comm=100.0, mix=mix, seed=0)
        )
        for job in jobs:
            if job.nodes == 1:
                assert job.kind is JobKind.COMPUTE

    def test_percent_zero_labels_nothing(self):
        trace = list(stream_trace(50, seed=4, max_nodes=64))
        mix = single_pattern_mix("rhvd", 0.5)
        jobs = list(assign_kinds_stream(trace, percent_comm=0.0, mix=mix))
        assert all(j.kind is JobKind.COMPUTE for j in jobs)

    def test_rejects_out_of_range_percent(self):
        with pytest.raises(ValueError, match="percent_comm"):
            list(
                assign_kinds_stream(
                    [], percent_comm=101.0, mix=single_pattern_mix("rhvd", 0.5)
                )
            )


class TestIterSwf:
    def test_matches_parse_swf(self):
        assert list(iter_swf(SWF_SAMPLE.splitlines())) == parse_swf(SWF_SAMPLE)

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "log.swf"
        path.write_text(SWF_SAMPLE)
        assert list(iter_swf(path)) == parse_swf(SWF_SAMPLE)

    def test_strict_raises(self):
        with pytest.raises(Exception):
            list(iter_swf(SWF_BROKEN.splitlines()))

    def test_non_strict_single_summary_warning(self):
        """Satellite (a): N bad lines produce one summary warning, not N."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = list(iter_swf(SWF_BROKEN.splitlines(), strict=False))
        assert len(records) == 4
        summary = [w for w in caught if issubclass(w.category, UserWarning)]
        assert len(summary) == 1
        assert "2" in str(summary[0].message)

    def test_parse_swf_non_strict_single_summary_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = parse_swf(SWF_BROKEN, strict=False)
        assert len(records) == 4
        assert len([w for w in caught if issubclass(w.category, UserWarning)]) == 1

    def test_streams_into_trace(self):
        eager = swf_to_trace(parse_swf(SWF_SAMPLE))
        lazy = swf_to_trace(list(iter_swf(SWF_SAMPLE.splitlines())))
        assert lazy == eager


class TestIterTraceOps:
    def trace(self):
        return list(stream_trace(120, seed=6, max_nodes=64))

    def test_iter_slice_window(self):
        trace = self.trace()
        lo = trace[20].submit_time
        hi = trace[90].submit_time
        assert list(iter_slice_window(iter(trace), lo, hi)) == slice_window(
            trace, lo, hi
        )

    def test_iter_filter_sizes(self):
        trace = self.trace()
        assert list(
            iter_filter_sizes(iter(trace), min_nodes=2, max_nodes=16)
        ) == filter_sizes(trace, min_nodes=2, max_nodes=16)

    def test_iter_scale_load(self):
        trace = self.trace()
        assert list(iter_scale_load(iter(trace), 0.5)) == scale_load(trace, 0.5)

    def test_iter_renumber(self):
        trace = self.trace()
        subset = trace[10:40]
        assert list(iter_renumber(iter(subset), start=5)) == renumber(
            subset, start=5
        )

    def test_chained_lazily(self):
        """The iterator forms compose without materializing."""
        trace = self.trace()
        eager = renumber(scale_load(filter_sizes(trace, min_nodes=2), 2.0))
        lazy = list(
            iter_renumber(
                iter_scale_load(iter_filter_sizes(iter(trace), min_nodes=2), 2.0)
            )
        )
        assert lazy == eager

    def test_concatenate_still_eager(self):
        trace = self.trace()
        joined = concatenate(trace[:10], trace[:5])
        assert len(joined) == 15
