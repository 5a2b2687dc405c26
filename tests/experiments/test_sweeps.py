"""Tests for the generic sweep utility."""

import csv
import io

import pytest

from repro.experiments.sweeps import SWEEPABLE, rows_to_csv, sweep


@pytest.fixture(scope="module")
def small_sweep():
    return sweep(
        {"seed": [0, 1], "percent_comm": [30.0, 90.0]},
        allocators=("default", "balanced"),
        defaults={"n_jobs": 40},
    )


class TestSweep:
    def test_row_count_is_grid_times_allocators(self, small_sweep):
        assert len(small_sweep) == 2 * 2 * 2

    def test_rows_carry_sweep_point(self, small_sweep):
        seeds = {row["seed"] for row in small_sweep}
        percents = {row["percent_comm"] for row in small_sweep}
        assert seeds == {0, 1}
        assert percents == {30.0, 90.0}

    def test_rows_carry_metrics(self, small_sweep):
        for row in small_sweep:
            assert row["total_execution_hours"] > 0
            assert "mean_bounded_slowdown" in row

    def test_improvement_zero_for_default(self, small_sweep):
        for row in small_sweep:
            if row["allocator"] == "default":
                assert row["exec_improvement_pct"] == 0.0

    def test_balanced_improves_at_high_comm(self, small_sweep):
        rows = [
            r for r in small_sweep
            if r["allocator"] == "balanced" and r["percent_comm"] == 90.0
        ]
        assert all(r["exec_improvement_pct"] > 0 for r in rows)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep"):
            sweep({"frobnicate": [1]})

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            sweep({})

    def test_unknown_default_rejected(self):
        with pytest.raises(ValueError, match="unknown default"):
            sweep({"seed": [0]}, defaults={"nope": 1})

    @pytest.mark.parametrize(
        "grid, allocators, match",
        [
            ({"seed": [0]}, ("nope",), "unknown allocator"),
            ({"log": ["nope"]}, ("default",), "unknown log"),
            ({"policy": ["nope"]}, ("default",), "unknown policy"),
        ],
    )
    def test_bad_names_raise_before_fan_out(self, grid, allocators, match):
        with pytest.raises(KeyError, match=match):
            sweep(grid, allocators=allocators, workers=2)

    def test_without_default_allocator_no_improvement(self):
        rows = sweep({"seed": [0]}, allocators=("balanced",),
                     defaults={"n_jobs": 20})
        assert all(r["exec_improvement_pct"] is None for r in rows)


class TestCsv:
    def test_round_trips_through_csv_reader(self, small_sweep):
        text = rows_to_csv(small_sweep)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(small_sweep)
        assert set(parsed[0].keys()) == set(small_sweep[0].keys())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rows_to_csv([])

    def test_sweepable_documented(self):
        assert "comm_fraction" in SWEEPABLE
