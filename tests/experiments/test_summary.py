"""Tests for the run-everything summary driver."""

import pytest

from repro.experiments import run_all


class TestRunAll:
    @pytest.fixture(scope="class")
    def summary(self):
        # tiny scale: correctness of the plumbing, not the numbers
        return run_all(n_jobs=40, seed=0, include_validation=False, n_samples=10)

    def test_covers_every_paper_artifact(self, summary):
        names = set(summary.reports)
        for expected in ("figure1", "table2", "table3", "figure6", "table4",
                         "figure7", "figure9"):
            assert expected in names
        assert any(n.startswith("figure8") for n in names)

    def test_figure8_runs_per_log(self, summary):
        fig8 = [n for n in summary.reports if n.startswith("figure8")]
        assert len(fig8) == 3

    def test_render_concatenates_all(self, summary):
        out = summary.render()
        for name in summary.reports:
            assert name in out
        assert "Table 2" in out

    def test_validation_skippable(self, summary):
        assert not any("validation" in n for n in summary.reports)
