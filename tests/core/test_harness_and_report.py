"""Unit tests for the harness, report renderers, and tables."""

import pytest

from repro.analysis import ALL_TABLES, render_paper_table
from repro.core.harness import Harness
from repro.core.report import render_series, render_table
from repro.core.runspec import RunSpec
from repro.uarch import XEON_E5310


class TestHarness:
    @pytest.fixture(scope="class")
    def harness(self):
        return Harness()

    def test_characterize_produces_events_and_metric(self, harness):
        outcome = harness.run(RunSpec(workload="Grep"))
        assert outcome.events.instructions > 0
        assert outcome.result.metric_value > 0
        assert outcome.mips > 0
        assert outcome.machine == "Intel Xeon E5645"

    def test_memoization(self, harness):
        first = harness.run(RunSpec(workload="Grep"))
        second = harness.run(RunSpec(workload="Grep"))
        assert first is second

    def test_distinct_scales_not_shared(self, harness):
        base = harness.run(RunSpec(workload="Grep", scale=1))
        bigger = harness.run(RunSpec(workload="Grep", scale=4))
        assert base is not bigger
        assert bigger.result.input_bytes > base.result.input_bytes

    def test_sweep_order(self, harness):
        sweep = harness.run_many(
            [RunSpec(workload="Grep", scale=scale) for scale in (1, 4)])
        assert [p.scale for p in sweep] == [1, 4]

    def test_machine_override(self, harness):
        outcome = harness.run(RunSpec(workload="Grep", machine=XEON_E5310))
        assert outcome.machine == "Intel Xeon E5310"
        assert outcome.events.l3_accesses == 0

    def test_modeled_seconds_positive_for_batch(self, harness):
        assert harness.run(RunSpec(workload="Grep")).modeled_seconds > 0


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table(["a", "long_header"], [[1, 2.5], [333, 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_render_table_title(self):
        assert render_table(["x"], [[1]], title="T").startswith("T\n")

    def test_render_series(self):
        text = render_series("s", [1, 2], [10.0, 20.0], "scale", "mips")
        assert "scale" in text and "mips" in text


class TestPaperTables:
    @pytest.mark.parametrize("name,shows", [
        ("Table 1", "BigDataBench"), ("Table 2", "Wikipedia Entries"),
        ("Table 3", "GOODS_AMOUNT"), ("Table 5", "12MB"),
        ("Table 6", "req/s"), ("Table 7", "None")])
    def test_table_shows_its_content(self, name, shows):
        assert shows in render_paper_table(name)

    def test_all_seven_tables_render(self):
        assert len(ALL_TABLES) == 7
        for name in ALL_TABLES:
            text = render_paper_table(name)
            assert name in text
            assert len(text.splitlines()) >= 3

    def test_table4_lists_19_workloads(self):
        headers, rows = ALL_TABLES["Table 4"]()
        assert len(rows) == 19
        assert render_paper_table("Table 4").count("\n") >= 20

    def test_table5_matches_machine(self):
        text = render_paper_table("Table 5")
        assert "12MB" in text and "E5645" in text

    def test_table7_has_no_l3(self):
        headers, rows = ALL_TABLES["Table 7"]()
        assert rows[0][list(headers).index("L3 Cache")] == "None"

    def test_table6_has_19_rows_with_sweep(self):
        headers, rows = ALL_TABLES["Table 6"]()
        assert len(rows) == 19
        assert all(row[-1] == "1x4x8x16x32" for row in rows)

