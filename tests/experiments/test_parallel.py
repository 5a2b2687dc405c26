"""Parallel runner equality: ``workers > 1`` is bit-identical to serial.

Each (allocator, …) task is an independent pure function of its inputs,
so fanning out over processes must change nothing — not the values, not
the record ordering. Every comparison here is exact equality.
"""

import pytest

from repro.experiments import (
    ExperimentConfig,
    continuous_runs,
    individual_runs,
)
from repro.experiments.sweeps import sweep
from repro.workloads import single_pattern_mix


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(
        log="theta",
        n_jobs=40,
        seed=3,
        mix=single_pattern_mix("rd"),
        allocators=("default", "balanced", "greedy"),
    )


def record_tuples(result):
    return [
        (
            r.job.job_id,
            r.start_time,
            r.finish_time,
            r.nodes.tolist(),
            sorted(r.cost_jobaware.items()),
            sorted(r.cost_default.items()),
        )
        for r in result.records
    ]


class TestContinuousParallel:
    def test_bit_identical_to_serial(self, cfg):
        serial = continuous_runs(cfg)
        parallel = continuous_runs(cfg, workers=2)
        assert list(serial) == list(parallel)  # cfg.allocators order
        for name in serial:
            assert record_tuples(serial[name]) == record_tuples(parallel[name])
            assert serial[name].summary() == parallel[name].summary()

    def test_single_worker_stays_serial(self, cfg):
        a = continuous_runs(cfg, workers=1)
        b = continuous_runs(cfg)
        for name in b:
            assert record_tuples(a[name]) == record_tuples(b[name])


class TestIndividualParallel:
    def test_bit_identical_to_serial(self, cfg):
        serial = individual_runs(cfg, n_samples=12)
        parallel = individual_runs(cfg, n_samples=12, workers=2)
        assert serial.sampled_job_ids == parallel.sampled_job_ids
        assert serial.outcomes == parallel.outcomes  # same order, same values

    def test_mean_improvement_matches(self, cfg):
        serial = individual_runs(cfg, n_samples=12)
        parallel = individual_runs(cfg, n_samples=12, workers=3)
        for name in ("balanced", "greedy"):
            assert serial.mean_improvement_pct(name) == (
                parallel.mean_improvement_pct(name)
            )


class TestSweepParallel:
    def test_bit_identical_to_serial(self):
        grid = {"seed": [0, 1], "percent_comm": [50.0, 90.0]}
        serial = sweep(grid, allocators=("default", "balanced"),
                       defaults={"n_jobs": 20})
        parallel = sweep(grid, allocators=("default", "balanced"),
                         defaults={"n_jobs": 20}, workers=2)
        assert serial == parallel

    def test_row_order_is_cross_product_order(self):
        grid = {"seed": [0, 1]}
        rows = sweep(grid, allocators=("default",), defaults={"n_jobs": 10},
                     workers=2)
        assert [r["seed"] for r in rows] == [0, 1]


class TestCliWorkersFlag:
    def test_simulate_accepts_workers(self, capsys):
        from repro.cli import main

        code = main(
            [
                "simulate",
                "--log", "theta",
                "--allocator", "balanced",
                "--jobs", "15",
                "--workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "default" in out and "balanced" in out
