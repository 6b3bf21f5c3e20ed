"""Regenerators for every table and figure in the paper's evaluation.

A figure runs all its points on the caller's harness in one batch, so
``jobs`` fans it out.  Figure 5 always shows both the E5310 and the
E5645: the harness' machine (``repro figure --machine``) does not apply.
"""

from repro.analysis.figures import (
    FIGURE_ORDER,
    FIGURES,
    FigureData,
    build_figures,
    figure2,
    figure3_mips,
    figure3_speedup,
    figure4,
    figure5,
    figure6_cache,
    figure6_tlb,
)
from repro.analysis.export import export_all, export_figure, export_table
from repro.analysis.ranking import (
    SuiteScore,
    geometric_mean,
    render_ranking,
    score_configurations,
)
from repro.analysis.roofline import (
    E5645_ROOFLINE,
    RooflineMachine,
    RooflinePoint,
    render_roofline,
    roofline_points,
)
from repro.analysis.tables import ALL_TABLES, render as render_paper_table

__all__ = [
    "ALL_TABLES",
    "E5645_ROOFLINE",
    "RooflineMachine",
    "RooflinePoint",
    "SuiteScore",
    "export_all",
    "export_figure",
    "export_table",
    "FIGURE_ORDER",
    "FIGURES",
    "FigureData",
    "build_figures",
    "figure2",
    "figure3_mips",
    "figure3_speedup",
    "figure4",
    "figure5",
    "figure6_cache",
    "figure6_tlb",
    "geometric_mean",
    "render_paper_table",
    "render_ranking",
    "render_roofline",
    "roofline_points",
    "score_configurations",
]
