"""Bench: communication-fraction sensitivity (generalizing Figure 6).

Figure 6 samples three communication fractions (0.33/0.5/0.7) through
its mix sets; the sweep utility lets us trace the whole curve. The
assertion generalizes the paper's A < B < C claim: the balanced
allocator's execution-time gain is monotone non-decreasing in the
communication fraction.
"""

from conftest import bench_jobs

from repro.experiments import sweep
from repro.experiments.report import render_table

FRACTIONS = (0.2, 0.4, 0.6, 0.8)


def test_bench_comm_fraction_sensitivity(benchmark, record_report):
    n = max(bench_jobs() // 2, 100)

    def run():
        return sweep(
            {"comm_fraction": list(FRACTIONS)},
            allocators=("default", "balanced"),
            defaults={"n_jobs": n, "log": "theta", "pattern": "rhvd"},
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    gains = {
        row["comm_fraction"]: row["exec_improvement_pct"]
        for row in rows
        if row["allocator"] == "balanced"
    }
    table = render_table(
        ["comm fraction", "balanced exec gain %"],
        [[f, gains[f]] for f in FRACTIONS],
        title=f"Sensitivity: gain vs communication fraction (theta, RHVD, {n} jobs)",
    )
    record_report("sensitivity", table)

    values = [gains[f] for f in FRACTIONS]
    assert all(v > 0 for v in values), values
    # monotone within a small tolerance for simulation noise
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - 1.0, values
