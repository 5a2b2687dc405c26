"""Tests for result JSON persistence."""

import json
from pathlib import Path

import pytest

from repro.scheduler import simulate
from repro.scheduler.serialize import (
    dump_result,
    load_result,
    result_from_dict,
    result_to_dict,
)

DATA_DIR = Path(__file__).parent / "data"
from repro.topology import two_level_tree

from ..conftest import make_comm_job, make_compute_job


@pytest.fixture(scope="module")
def result():
    topo = two_level_tree(2, 4)
    jobs = [
        make_comm_job(job_id=1, nodes=8, runtime=100.0),
        make_compute_job(job_id=2, nodes=4, runtime=50.0, submit_time=5.0),
    ]
    return simulate(topo, jobs, "adaptive")


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self, result):
        back = result_from_dict(result_to_dict(result))
        assert back.allocator_name == result.allocator_name
        assert len(back) == len(result)
        for a, b in zip(result.records, back.records):
            assert a.job.job_id == b.job.job_id
            assert a.job.kind == b.job.kind
            assert a.start_time == b.start_time
            assert a.finish_time == b.finish_time
            assert a.nodes.tolist() == b.nodes.tolist()
            assert a.cost_jobaware == b.cost_jobaware

    def test_aggregates_survive(self, result):
        back = result_from_dict(result_to_dict(result))
        assert back.total_execution_hours == pytest.approx(result.total_execution_hours)
        assert back.total_wait_hours == pytest.approx(result.total_wait_hours)

    def test_comm_components_rebuilt(self, result):
        back = result_from_dict(result_to_dict(result))
        job = back.record_for(1).job
        assert job.comm[0].pattern.name == "rd"
        assert job.comm[0].fraction == pytest.approx(0.7)

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "run.json"
        dump_result(result, path)
        assert load_result(path).summary() == pytest.approx(result.summary())

    def test_output_is_plain_json(self, result, tmp_path):
        path = tmp_path / "run.json"
        dump_result(result, path)
        data = json.loads(path.read_text())
        assert data["allocator"] == "adaptive"
        assert data["format_version"] == 3

    def test_unknown_version_rejected(self, result):
        data = result_to_dict(result)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            result_from_dict(data)


class TestVersionCompat:
    def test_v1_files_load_with_fault_free_defaults(self, result):
        data = result_to_dict(result)
        data["format_version"] = 1
        data.pop("unstarted")
        data.pop("digest")  # v1 files predate the digest field
        for rec in data["records"]:
            rec.pop("requeues")
            rec.pop("wasted_node_seconds")
            rec.pop("failed")
        back = result_from_dict(data)
        assert back.unstarted == []
        assert all(r.requeues == 0 and not r.failed for r in back.records)

    @pytest.mark.parametrize("name", ["result_v1.json", "result_v2.json"])
    def test_committed_legacy_fixtures_load(self, name):
        # Real files written by older builds, frozen in the repo so a
        # future format change cannot silently orphan existing results.
        back = load_result(DATA_DIR / name)
        assert back.allocator_name == "adaptive"
        assert sorted(r.job.job_id for r in back.records) == [1, 2]
        assert back.unstarted == []
        assert all(r.requeues == 0 and not r.failed for r in back.records)

    def test_fault_fields_round_trip(self, result):
        data = result_to_dict(result)
        data["records"][0]["requeues"] = 2
        data["records"][0]["wasted_node_seconds"] = 123.5
        data["records"][0]["failed"] = True
        data.pop("digest")  # hand-edited payload no longer matches it
        back = result_from_dict(data)
        rec = back.record_for(data["records"][0]["job"]["job_id"])
        assert rec.requeues == 2
        assert rec.wasted_node_seconds == 123.5
        assert rec.failed
