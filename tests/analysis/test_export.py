"""Unit tests for the CSV export utilities."""

import csv
import os

from repro.analysis import export_all, export_figure, export_table
from repro.analysis import figures
from repro.analysis.figures import FigureData
from repro.core.harness import Harness


def test_export_figure_roundtrip(tmp_path):
    figure = FigureData("f", ["Workload", "X"], [["Sort", 1.5], ["Grep", 2.0]])
    path = export_figure(figure, str(tmp_path / "f.csv"))
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["Workload", "X"]
    assert rows[1] == ["Sort", "1.5"]


def test_export_table(tmp_path):
    path = export_table("Table 5", str(tmp_path / "t5.csv"))
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert "L3 Cache" in rows[0]
    assert "12MB" in rows[1]


def test_export_all_without_sweeps(tmp_path, monkeypatch):
    profiled = []
    run_suite = figures.run_suite

    def counted(*args):
        profiled.append(args)
        return run_suite(*args)

    monkeypatch.setattr(figures, "run_suite", counted)
    harness = Harness()
    written = export_all(harness, str(tmp_path / "csv"),
                         include_sweeps=False)
    assert len(written) == 7 + 3
    assert all(os.path.exists(p) for p in written)
    # Figures 4, 6-1 and 6-2 share one profile of each traditional suite.
    assert len(profiled) == 4
