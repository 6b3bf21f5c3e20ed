"""Unit tests for the figure generators (small workload subsets)."""

import pytest

from repro.analysis import (
    FIGURE_ORDER,
    figure2,
    figure3_mips,
    figure3_speedup,
    figure4,
    figure5,
    figure6_cache,
    figure6_tlb,
)
from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.uarch import XEON_E5310, XEON_E5645

SUBSET = ["Grep", "K-means"]


@pytest.fixture(scope="module")
def harness():
    return Harness()


class TestFigureOrder:
    def test_covers_all_19(self):
        assert len(FIGURE_ORDER) == 19
        assert len(set(FIGURE_ORDER)) == 19


class TestFigure2:
    def test_structure(self, harness):
        fig = figure2(harness, names=SUBSET, small_scale=1, large_scale=4)
        assert fig.headers == ["Workload", "Large Input", "Small Input"]
        assert [row[0] for row in fig.rows] == SUBSET + ["Avg_BigData"]
        assert all(row[1] > 0 and row[2] > 0 for row in fig.rows)


class TestFigure3:
    def test_mips_columns(self, harness):
        fig = figure3_mips(harness, names=SUBSET, scales=(1, 4))
        assert fig.headers == ["Workload", "Baseline", "4X"]
        for row in fig.rows:
            assert all(v > 0 for v in row[1:])

    def test_speedup_normalized(self, harness):
        fig = figure3_speedup(harness, names=SUBSET, scales=(1, 4))
        for row in fig.rows:
            assert row[1] == pytest.approx(1.0)


class TestFigure4:
    def test_mix_rows_sum_to_one(self, harness):
        fig = figure4(harness, names=SUBSET)
        for row in fig.rows:
            assert sum(row[1:6]) == pytest.approx(1.0, abs=1e-6), row[0]

    def test_traditional_rows_present(self, harness):
        fig = figure4(harness, names=SUBSET)
        labels = [row[0] for row in fig.rows]
        for suite in ("Avg_HPCC", "Avg_PARSEC", "Avg_SPECFP", "Avg_SPECINT"):
            assert suite in labels


class TestFigure6:
    def test_cache_and_tlb_shapes(self, harness):
        cache = figure6_cache(harness, names=SUBSET)
        tlb = figure6_tlb(harness, names=SUBSET)
        assert cache.row_for("Grep")[1] > 0
        assert tlb.row_for("Grep")[1] >= 0
        with pytest.raises(KeyError):
            cache.row_for("nonexistent")

    def test_render_and_column_access(self, harness):
        fig = figure6_cache(harness, names=SUBSET)
        text = fig.render()
        assert "Figure 6-1" in text
        assert len(fig.column("L1I MPKI")) == len(fig.rows)


class TestFigure5:
    """Figure 5 runs both machines on the caller's harness."""

    def test_columns_name_their_machine_whatever_the_harness(self):
        harness = Harness(machine=XEON_E5310)
        fp, integer = figure5(harness, names=["Grep"])
        for machine, index in ((XEON_E5310, 1), (XEON_E5645, 2)):
            events = harness.run(RunSpec(workload="Grep",
                                         machine=machine)).events
            assert fp.row_for("Grep")[index] == events.fp_intensity
            assert integer.row_for("Grep")[index] == events.int_intensity
        assert fp.row_for("Grep")[1] != fp.row_for("Grep")[2]

    def test_both_machines_fan_out_on_the_callers_harness(self):
        harness = Harness(jobs=2)
        figure5(harness, names=["Grep"])
        machines = {key[3] for key in harness._cache}
        assert machines == {XEON_E5310.name, XEON_E5645.name}
