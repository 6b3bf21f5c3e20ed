"""Generators for the paper's Figures 2-6.

Each generator hands every point its figure reads to the caller's
:class:`~repro.core.harness.Harness` in one ``run_many`` call and
returns the rows the paper plots plus an ASCII rendering.  Figures 4-6
are column specs (:class:`EventsFigure`) over one events pass,
:func:`events_figures`.  :data:`FIGURES` maps a figure number to its
generators for ``repro figure`` and ``export_all``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import attrgetter

from repro.baselines import TRADITIONAL_SUITES, run_suite, suite_average
from repro.core.harness import Harness
from repro.core.report import render_table
from repro.core.runspec import RunSpec
from repro.core.workload import SCALE_FACTORS
from repro.uarch.events import PerfEvents
from repro.uarch.hierarchy import XEON_E5310, XEON_E5645

#: Figure bar order: the 19 workloads as the paper's x-axes list them.
FIGURE_ORDER = [
    "Sort", "Grep", "WordCount", "BFS", "PageRank", "Index", "K-means",
    "Connected Components", "Collaborative Filtering", "Naive Bayes",
    "Select Query", "Aggregate Query", "Join Query",
    "Nutch Server", "Olio Server", "Rubis Server",
    "Read", "Write", "Scan",
]


@dataclass
class FigureData:
    """One regenerated figure: per-series values plus a rendering.

    A figure of the events pass carries that pass's event vectors in
    ``notes["events"]``: machine name -> row label -> ``PerfEvents``.
    """

    name: str
    headers: list
    rows: list
    notes: dict = field(default_factory=dict)

    def render(self) -> str:
        return render_table(self.headers, self.rows, title=self.name)

    def column(self, header: str) -> list:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_for(self, label: str) -> list:
        for row in self.rows:
            if row[0] == label:
                return row
        raise KeyError(f"{self.name} has no row {label!r}")


def _sweep_figure(harness: Harness, name: str, headers: list, names, scales,
                  row) -> FigureData:
    """One row ``[workload, *row(its points at every scale)]`` per
    workload; the points run as one batch."""
    names = names or FIGURE_ORDER
    points = harness.run_many([RunSpec(workload=workload, scale=scale)
                               for workload in names for scale in scales])
    width = len(scales)
    return FigureData(name, headers, [
        [workload, *row(points[i * width:(i + 1) * width])]
        for i, workload in enumerate(names)])


def figure2(harness: Harness, names=None, small_scale: int = 1,
            large_scale: int = 32) -> FigureData:
    """Figure 2: L3 cache MPKI under the baseline (small) and large inputs.

    The paper's 'large input' is the configuration with the best
    user-perceivable performance; like the paper we contrast the baseline
    with the top of the sweep.
    """
    figure = _sweep_figure(
        harness, "Figure 2: L3 MPKI by input size",
        ["Workload", "Large Input", "Small Input"], names,
        (small_scale, large_scale),
        lambda sweep: [sweep[1].events.l3_mpki, sweep[0].events.l3_mpki])
    figure.rows.append(["Avg_BigData", *(
        sum(column) / len(column)
        for column in zip(*(row[1:] for row in figure.rows)))])
    return figure


def _scale_headers(scales) -> list:
    return ["Workload"] + [f"{s}X" if s > 1 else "Baseline" for s in scales]


def figure3_mips(harness: Harness, names=None, scales=SCALE_FACTORS) -> FigureData:
    """Figure 3-1: MIPS of every workload at every data scale."""
    return _sweep_figure(harness, "Figure 3-1: MIPS vs data scale",
                         _scale_headers(scales), names, scales,
                         lambda sweep: [point.mips for point in sweep])


def figure3_speedup(harness: Harness, names=None, scales=SCALE_FACTORS) -> FigureData:
    """Figure 3-2: user-perceivable performance normalized to baseline."""
    def normalized(sweep):
        base = sweep[0].result.metric_value or 1.0
        return [point.result.metric_value / base for point in sweep]

    return _sweep_figure(
        harness, "Figure 3-2: normalized performance vs data scale",
        _scale_headers(scales), names, scales, normalized)


@dataclass(frozen=True)
class EventsFigure:
    """One of Figures 4-6: rows are the workloads, ``Avg_BigData`` (their
    merged events) and ``Avg_<suite>`` per traditional suite.  A column
    is ``(header, quantity, machine)``: the quantity read off a row's
    ``PerfEvents`` on that machine (None: the harness' machine).  Calling
    one builds it alone."""

    name: str
    columns: tuple

    def __call__(self, harness: Harness, names=None) -> FigureData:
        return events_figures(harness, [self], names)[0]


def _columns(*pairs, machine=None) -> tuple:
    """Columns reading one ``PerfEvents`` attribute each."""
    return tuple((header, attrgetter(attribute), machine)
                 for header, attribute in pairs)


figure4 = EventsFigure("Figure 4: instruction breakdown", tuple(
    (header, lambda events, kind=kind: events.instruction_mix()[kind], None)
    for header, kind in (("Load", "load"), ("Store", "store"),
                         ("Branch", "branch"), ("Integer", "int"),
                         ("FP", "fp"))
) + _columns(("Int/FP ratio", "int_fp_ratio")))
figure5_fp, figure5_int = (
    EventsFigure(f"Figure 5-{number}: {label} operation intensity",
                 _columns(("E5310", attribute), machine=XEON_E5310)
                 + _columns(("E5645", attribute), machine=XEON_E5645))
    for number, label, attribute in ((1, "FP", "fp_intensity"),
                                     (2, "integer", "int_intensity")))
figure6_cache = EventsFigure("Figure 6-1: cache behaviors", _columns(
    ("L1I MPKI", "l1i_mpki"), ("L2 MPKI", "l2_mpki"), ("L3 MPKI", "l3_mpki")))
figure6_tlb = EventsFigure("Figure 6-2: TLB behaviors", _columns(
    ("DTLB MPKI", "dtlb_mpki"), ("ITLB MPKI", "itlb_mpki")))


def figure5(harness: Harness, names=None) -> "tuple[FigureData, FigureData]":
    """Figures 5-1 and 5-2: an E5310 and an E5645 column each, whatever
    the harness' machine."""
    return tuple(events_figures(harness, [figure5_fp, figure5_int], names))


def events_figures(harness: Harness, figures, names=None) -> list:
    """Build events figures in one pass; one :class:`FigureData` each.

    Every workload runs on every machine a column names, all in one
    ``run_many``; each traditional suite is profiled once per machine.
    """
    names = list(names or FIGURE_ORDER)
    machines = {machine.name: machine for machine in (
        column_machine or harness.machine for figure in figures
        for _, _, column_machine in figure.columns)}
    points = iter(harness.run_many([
        RunSpec(workload=name, machine=machine)
        for machine in machines.values() for name in names]))
    events = {}
    for machine_name, machine in machines.items():
        workloads = [next(points).events for _ in names]
        events[machine_name] = {
            **dict(zip(names, workloads)),
            "Avg_BigData": reduce(PerfEvents.merge, workloads),
            **{f"Avg_{suite}": _suite_events(harness, suite, machine)
               for suite in TRADITIONAL_SUITES},
        }
    labels = [*names, "Avg_BigData",
              *(f"Avg_{suite}" for suite in TRADITIONAL_SUITES)]
    return [FigureData(
        name=figure.name,
        headers=["Workload", *(header for header, _, _ in figure.columns)],
        rows=[[label, *(
            quantity(events[(machine or harness.machine).name][label])
            for _, quantity, machine in figure.columns)] for label in labels],
        notes={"events": events},
    ) for figure in figures]


def _suite_events(harness: Harness, suite: str, machine) -> PerfEvents:
    """The averaged events of one traditional suite on ``machine``,
    profiled once and kept in the harness's result store, if any."""
    key = ("suite", suite, repr(machine), harness.seed)
    cache = harness.cache
    events = None if cache is None else cache.get("result", key)
    if events is None:
        events = suite_average(run_suite(
            TRADITIONAL_SUITES[suite](), machine, harness.seed))
        if cache is not None:
            cache.put("result", key, events)
    return events


#: ``repro figure N`` -> its figures by export slug, in order.
FIGURES = {
    "2": {"figure2": figure2},
    "3": {"figure3_mips": figure3_mips, "figure3_speedup": figure3_speedup},
    "3-1": {"figure3_mips": figure3_mips},
    "3-2": {"figure3_speedup": figure3_speedup},
    "4": {"figure4": figure4},
    "5": {"figure5_fp": figure5_fp, "figure5_int": figure5_int},
    "6": {"figure6_cache": figure6_cache, "figure6_tlb": figure6_tlb},
}


def build_figures(harness: Harness, numbers) -> dict:
    """Slug -> :class:`FigureData` for every figure of ``numbers`` (keys of
    :data:`FIGURES`), in order; the events figures share one pass."""
    wanted = {slug: generator for number in numbers
              for slug, generator in FIGURES[number].items()}
    events = iter(events_figures(harness, [
        generator for generator in wanted.values()
        if isinstance(generator, EventsFigure)]))
    return {slug: next(events) if isinstance(generator, EventsFigure)
            else generator(harness) for slug, generator in wanted.items()}
