"""Tests for the Standard Workload Format reader/writer."""

import pytest

from repro.workloads import SwfError, load_swf, parse_swf, swf_to_trace, write_swf

SAMPLE = """\
; SWF header comment
; MaxNodes: 8
1 0 5 100 16 -1 -1 16 200 -1 1 1 1 -1 1 1 -1 -1
2 10 0 50 4 -1 -1 4 100 -1 1 2 1 -1 1 1 -1 -1
3 20 0 0 4 -1 -1 4 100 -1 0 2 1 -1 1 1 -1 -1
4 30 0 60 0 -1 -1 8 100 -1 1 3 1 -1 1 1 -1 -1
"""


class TestParse:
    def test_records_parsed(self):
        records = parse_swf(SAMPLE)
        assert len(records) == 4
        assert records[0].job_number == 1
        assert records[0].run_time == 100
        assert records[0].allocated_processors == 16

    def test_comments_skipped(self):
        assert len(parse_swf("; only comments\n;\n")) == 0

    def test_wrong_field_count(self):
        with pytest.raises(SwfError, match="expected 18"):
            parse_swf("1 2 3\n")

    def test_non_numeric(self):
        with pytest.raises(SwfError, match="non-numeric"):
            parse_swf("1 0 5 x 16 -1 -1 16 200 -1 1 1 1 -1 1 1 -1 -1\n")

    def test_float_fields_truncated(self):
        text = "1 0.0 5 100.5 16 -1 -1 16 200 -1 1 1 1 -1 1 1 -1 -1\n"
        assert parse_swf(text)[0].run_time == 100


class TestWrite:
    def test_round_trip(self):
        records = parse_swf(SAMPLE)
        assert parse_swf(write_swf(records)) == records

    def test_header_written_as_comment(self):
        out = write_swf(parse_swf(SAMPLE), header="generated\nby tests")
        assert out.startswith("; generated\n; by tests\n")


class TestToTrace:
    def test_completed_only_filter(self):
        trace = swf_to_trace(parse_swf(SAMPLE))
        # job 3: zero runtime dropped; job 4: allocated=0 -> requested=8 kept
        ids = [t.job_id for t in trace]
        assert 3 not in ids
        assert 4 in ids

    def test_status_filter_disabled(self):
        records = parse_swf(SAMPLE)
        ids = [t.job_id for t in swf_to_trace(records, completed_only=False)]
        assert 3 not in ids  # still dropped: zero runtime

    def test_processors_per_node_ceiling(self):
        trace = swf_to_trace(parse_swf(SAMPLE), processors_per_node=4)
        by_id = {t.job_id: t for t in trace}
        assert by_id[1].nodes == 4   # 16 procs / 4
        assert by_id[2].nodes == 1   # 4 procs / 4
        assert by_id[4].nodes == 2   # 8 requested / 4

    def test_submit_times_shifted_to_zero(self):
        trace = swf_to_trace(parse_swf(SAMPLE))
        assert trace[0].submit_time == 0.0

    def test_max_jobs(self):
        assert len(swf_to_trace(parse_swf(SAMPLE), max_jobs=1)) == 1

    def test_invalid_processors_per_node(self):
        with pytest.raises(ValueError):
            swf_to_trace([], processors_per_node=0)

    def test_empty(self):
        assert swf_to_trace([]) == []

    def test_trace_sorted_by_submit(self):
        text = (
            "2 50 0 10 1 -1 -1 1 10 -1 1 1 1 -1 1 1 -1 -1\n"
            "1 60 0 10 1 -1 -1 1 10 -1 1 1 1 -1 1 1 -1 -1\n"
            "3 40 0 10 1 -1 -1 1 10 -1 1 1 1 -1 1 1 -1 -1\n"
        )
        trace = swf_to_trace(parse_swf(text))
        assert [t.job_id for t in trace] == [3, 2, 1]


class TestLoad:
    def test_load_from_disk(self, tmp_path):
        p = tmp_path / "log.swf"
        p.write_text(SAMPLE)
        assert len(load_swf(p)) == 4


class TestStrictFalse:
    BAD = SAMPLE + "truncated line with too few fields\n" + \
        "x 0 0 10 1 -1 -1 1 10 -1 1 1 1 -1 1 1 -1 -1\n"

    def test_strict_default_raises(self):
        with pytest.raises(SwfError):
            parse_swf(self.BAD)

    def test_lenient_skips_and_warns_once_with_count(self):
        with pytest.warns(UserWarning, match=r"skipped 2 malformed"):
            records = parse_swf(self.BAD, strict=False)
        assert len(records) == 4  # the good SAMPLE lines survive
        assert [r.job_number for r in records] == [1, 2, 3, 4]

    def test_warning_names_the_first_offender(self):
        with pytest.warns(UserWarning, match="line 7"):
            parse_swf(self.BAD, strict=False)

    def test_clean_input_warns_nothing(self, recwarn):
        parse_swf(SAMPLE, strict=False)
        assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]

    def test_load_swf_passes_strict_through(self, tmp_path):
        p = tmp_path / "bad.swf"
        p.write_text(self.BAD)
        with pytest.raises(SwfError):
            load_swf(p)
        with pytest.warns(UserWarning):
            assert len(load_swf(p, strict=False)) == 4
