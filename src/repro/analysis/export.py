"""Export regenerated tables/figures as CSV for external plotting.

The paper's figures are bar/line charts; downstream users typically want
the raw series.  ``export_figure`` writes one CSV per
:class:`~repro.analysis.figures.FigureData`; ``export_all`` regenerates
and dumps the whole evaluation into a directory.
"""

from __future__ import annotations

import csv
import os

from repro.analysis.figures import FigureData, build_figures
from repro.analysis.tables import ALL_TABLES


def export_figure(figure: FigureData, path: str) -> str:
    """Write one figure's rows as CSV; returns the path."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(figure.headers)
        writer.writerows(figure.rows)
    return path


def export_table(name: str, path: str) -> str:
    """Write one paper table (by its 'Table N' name) as CSV."""
    return export_figure(FigureData(name, *ALL_TABLES[name]()), path)


#: The figures ``export_all`` writes, by
#: :data:`~repro.analysis.figures.FIGURES` number; ``include_sweeps``
#: adds the expensive Figure 2/3 data sweeps.
EXPORTED = ("4", "6")
SWEEPS = ("2", "3")


def export_all(harness, directory: str, include_sweeps: bool = False) -> list:
    """Regenerate the evaluation and write every CSV under ``directory``."""
    written = []
    for name in ALL_TABLES:
        slug = name.lower().replace(" ", "")
        written.append(export_table(name, os.path.join(directory, f"{slug}.csv")))
    numbers = EXPORTED + (SWEEPS if include_sweeps else ())
    for slug, figure in build_figures(harness, numbers).items():
        written.append(export_figure(
            figure, os.path.join(directory, f"{slug}.csv")
        ))
    return written
