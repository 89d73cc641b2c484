"""Tests for repro.core.experiments (paper report renderer)."""

import pytest

from repro.core import EXPERIMENTS, render_experiments
from repro.obs import collecting

from conftest import TEST_SCALE


class TestRenderExperiments:
    @pytest.fixture(scope="class")
    def report(self, tiny_ali, tiny_msrc):
        return render_experiments(
            tiny_ali,
            tiny_msrc,
            day_seconds=TEST_SCALE.day_seconds,
            n_days_ali=TEST_SCALE.n_days,
            n_days_msrc=TEST_SCALE.n_days,
        )

    def test_every_experiment_present(self, report):
        for exp_id, _ in EXPERIMENTS:
            assert exp_id in report

    def test_contains_all_tables(self, report):
        for table in ("Table I", "Table II", "Table III", "Table IV", "Table V", "Table VI"):
            assert table in report

    def test_contains_figures(self, report):
        for token in ("Fig2a", "Fig3", "Fig5", "Fig10", "Fig17", "Fig18"):
            assert token in report

    def test_dataset_names_used(self, report, tiny_ali, tiny_msrc):
        assert tiny_ali.name in report
        assert tiny_msrc.name in report

    def test_only_filter_exact(self, tiny_ali, tiny_msrc):
        report = render_experiments(
            tiny_ali, tiny_msrc, day_seconds=TEST_SCALE.day_seconds, only=["Table I"]
        )
        assert "=== Table I " in report
        assert "Table II" not in report
        assert "Figure 18" not in report

    def test_table1_alone_takes_the_light_pass(self, report, tiny_ali, tiny_msrc):
        """Table I alone equals its section of a full run, from one block
        view per volume and no cache simulation."""
        with collecting() as reg:
            alone = render_experiments(
                tiny_ali,
                tiny_msrc,
                day_seconds=TEST_SCALE.day_seconds,
                n_days_ali=TEST_SCALE.n_days,
                n_days_msrc=TEST_SCALE.n_days,
                only=["Table I"],
            )
        assert report.startswith(alone)
        assert alone.startswith("=== Table I ")
        assert reg.counter("cache.accesses").value == 0
        volumes = len(tiny_ali.non_empty_volumes()) + len(tiny_msrc.non_empty_volumes())
        assert reg.counter("trace.blocks.expansions").value == volumes

    def test_only_filter_figure(self, tiny_ali, tiny_msrc):
        report = render_experiments(
            tiny_ali, tiny_msrc, day_seconds=TEST_SCALE.day_seconds, only=["Figure 18"]
        )
        assert "Fig18" in report
        assert "Fig2a" not in report

    def test_registry_covers_paper(self):
        ids = " ".join(exp_id for exp_id, _ in EXPERIMENTS)
        # Tables I-VI and Figures 2-18 all appear in the registry ids.
        for n in range(2, 19):
            assert f"Figure {n}" in ids or f"Figures 14-15" in ids or f"Figures 16-17" in ids, n
        for t in ("Table I", "Table II", "Table III", "Table IV", "Table V", "Table VI"):
            assert t in ids
