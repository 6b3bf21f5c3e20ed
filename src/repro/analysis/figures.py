"""Generators for the paper's Figures 2-6.

Each generator takes a :class:`~repro.core.harness.Harness` (so bench
targets can share memoized runs), executes the required experiments, and
returns plain data structures plus an ASCII rendering -- the same rows
and series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines import TRADITIONAL_SUITES, run_suite, suite_average
from repro.core import registry
from repro.core.harness import Harness
from repro.core.report import render_table
from repro.core.runspec import RunSpec
from repro.core.workload import SCALE_FACTORS
from repro.uarch.hierarchy import XEON_E5310, XEON_E5645

#: Figure bar order: the 19 workloads as the paper's x-axes list them.
FIGURE_ORDER = [
    "Sort", "Grep", "WordCount", "BFS", "PageRank", "Index", "K-means",
    "Connected Components", "Collaborative Filtering", "Naive Bayes",
    "Select Query", "Aggregate Query", "Join Query",
    "Nutch Server", "Olio Server", "Rubis Server",
    "Read", "Write", "Scan",
]

TRADITIONAL_ORDER = ["HPCC", "PARSEC", "SPECFP", "SPECINT"]


@dataclass
class FigureData:
    """One regenerated figure: per-series values plus a rendering."""

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


def _traditional_events(machine=XEON_E5645) -> dict:
    """Suite-average events for the four traditional suites."""
    return {
        suite: suite_average(run_suite(factory(), machine))
        for suite, factory in TRADITIONAL_SUITES.items()
    }


# ---------------------------------------------------------------------------
# Figure 2: L3 MPKI, large vs small input
# ---------------------------------------------------------------------------

def figure2(harness: Harness, names=None, small_scale: int = 1,
            large_scale: int = 32) -> FigureData:
    """L3 cache MPKI under the baseline (small) and large inputs.

    The paper's 'large input' is the configuration with the best
    user-perceivable performance; like the paper we contrast the baseline
    with the top of the sweep.
    """
    names = names or FIGURE_ORDER
    rows = []
    for name in names:
        small = harness.run(RunSpec(workload=name, scale=small_scale))
        large = harness.run(RunSpec(workload=name, scale=large_scale))
        rows.append([name, large.events.l3_mpki, small.events.l3_mpki])
    avg_large = sum(r[1] for r in rows) / len(rows)
    avg_small = sum(r[2] for r in rows) / len(rows)
    rows.append(["Avg_BigData", avg_large, avg_small])
    return FigureData(
        name="Figure 2: L3 MPKI by input size",
        headers=["Workload", "Large Input", "Small Input"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 3: MIPS and normalized performance across the data sweep
# ---------------------------------------------------------------------------

def figure3_mips(harness: Harness, names=None, scales=SCALE_FACTORS) -> FigureData:
    """Figure 3-1: MIPS of every workload at every data scale."""
    names = names or FIGURE_ORDER
    rows = []
    for name in names:
        sweep = harness.run_many(
            [RunSpec(workload=name, scale=s) for s in scales])
        rows.append([name] + [point.mips for point in sweep])
    return FigureData(
        name="Figure 3-1: MIPS vs data scale",
        headers=["Workload"] + [f"{s}X" if s > 1 else "Baseline" for s in scales],
        rows=rows,
    )


def figure3_speedup(harness: Harness, names=None, scales=SCALE_FACTORS) -> FigureData:
    """Figure 3-2: user-perceivable performance normalized to baseline."""
    names = names or FIGURE_ORDER
    rows = []
    for name in names:
        sweep = harness.run_many(
            [RunSpec(workload=name, scale=s) for s in scales])
        base = sweep[0].result.metric_value or 1.0
        rows.append([name] + [p.result.metric_value / base for p in sweep])
    return FigureData(
        name="Figure 3-2: normalized performance vs data scale",
        headers=["Workload"] + [f"{s}X" if s > 1 else "Baseline" for s in scales],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 4: instruction breakdown
# ---------------------------------------------------------------------------

def figure4(harness: Harness, names=None) -> FigureData:
    """Instruction-class fractions for the 19 workloads plus the
    traditional-suite averages, and the int/fp ratio."""
    names = names or FIGURE_ORDER
    rows = []
    bigdata_merged = None
    for name in names:
        outcome = harness.run(RunSpec(workload=name))
        events = outcome.events
        mix = events.instruction_mix()
        rows.append([name, mix["load"], mix["store"], mix["branch"],
                     mix["int"], mix["fp"], events.int_fp_ratio])
        bigdata_merged = events if bigdata_merged is None else bigdata_merged.merge(events)
    mix = bigdata_merged.instruction_mix()
    rows.append(["Avg_BigData", mix["load"], mix["store"], mix["branch"],
                 mix["int"], mix["fp"], bigdata_merged.int_fp_ratio])
    for suite, events in _traditional_events().items():
        mix = events.instruction_mix()
        rows.append([f"Avg_{suite}", mix["load"], mix["store"], mix["branch"],
                     mix["int"], mix["fp"], events.int_fp_ratio])
    return FigureData(
        name="Figure 4: instruction breakdown",
        headers=["Workload", "Load", "Store", "Branch", "Integer", "FP",
                 "Int/FP ratio"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Figure 5: operation intensity on E5310 and E5645
# ---------------------------------------------------------------------------

def figure5(harness_e5645: Harness, harness_e5310: Harness = None,
            names=None) -> "tuple[FigureData, FigureData]":
    """Figure 5-1 (FP intensity) and 5-2 (integer intensity), both
    machines."""
    names = names or FIGURE_ORDER
    harness_e5310 = harness_e5310 or Harness(machine=XEON_E5310,
                                             seed=harness_e5645.seed)
    fp_rows, int_rows = [], []
    merged = {"E5310": None, "E5645": None}
    for name in names:
        on_new = harness_e5645.run(RunSpec(workload=name))
        on_old = harness_e5310.run(RunSpec(workload=name))
        fp_rows.append([name, on_old.events.fp_intensity,
                        on_new.events.fp_intensity])
        int_rows.append([name, on_old.events.int_intensity,
                         on_new.events.int_intensity])
        merged["E5645"] = (on_new.events if merged["E5645"] is None
                           else merged["E5645"].merge(on_new.events))
        merged["E5310"] = (on_old.events if merged["E5310"] is None
                           else merged["E5310"].merge(on_old.events))
    fp_rows.append(["Avg_BigData", merged["E5310"].fp_intensity,
                    merged["E5645"].fp_intensity])
    int_rows.append(["Avg_BigData", merged["E5310"].int_intensity,
                     merged["E5645"].int_intensity])
    on_new, on_old = (_traditional_events(XEON_E5645),
                      _traditional_events(XEON_E5310))
    for suite in TRADITIONAL_ORDER:
        new, old = on_new[suite], on_old[suite]
        fp_rows.append([f"Avg_{suite}", old.fp_intensity, new.fp_intensity])
        int_rows.append([f"Avg_{suite}", old.int_intensity, new.int_intensity])
    headers = ["Workload", "E5310", "E5645"]
    return (
        FigureData("Figure 5-1: FP operation intensity", headers, fp_rows),
        FigureData("Figure 5-2: integer operation intensity", headers, int_rows),
    )


# ---------------------------------------------------------------------------
# Figure 6: memory-hierarchy behavior
# ---------------------------------------------------------------------------

def figure6_cache(harness: Harness, names=None) -> FigureData:
    """Figure 6-1: L1I / L2 / L3 MPKI, workloads plus traditional suites."""
    names = names or FIGURE_ORDER
    rows = []
    merged = None
    for name in names:
        events = harness.run(RunSpec(workload=name)).events
        rows.append([name, events.l1i_mpki, events.l2_mpki, events.l3_mpki])
        merged = events if merged is None else merged.merge(events)
    rows.append(["Avg_BigData", merged.l1i_mpki, merged.l2_mpki, merged.l3_mpki])
    for suite, events in _traditional_events().items():
        rows.append([f"Avg_{suite}", events.l1i_mpki, events.l2_mpki,
                     events.l3_mpki])
    return FigureData(
        name="Figure 6-1: cache behaviors",
        headers=["Workload", "L1I MPKI", "L2 MPKI", "L3 MPKI"],
        rows=rows,
    )


def figure6_tlb(harness: Harness, names=None) -> FigureData:
    """Figure 6-2: DTLB / ITLB MPKI, workloads plus traditional suites."""
    names = names or FIGURE_ORDER
    rows = []
    merged = None
    for name in names:
        events = harness.run(RunSpec(workload=name)).events
        rows.append([name, events.dtlb_mpki, events.itlb_mpki])
        merged = events if merged is None else merged.merge(events)
    rows.append(["Avg_BigData", merged.dtlb_mpki, merged.itlb_mpki])
    for suite, events in _traditional_events().items():
        rows.append([f"Avg_{suite}", events.dtlb_mpki, events.itlb_mpki])
    return FigureData(
        name="Figure 6-2: TLB behaviors",
        headers=["Workload", "DTLB MPKI", "ITLB MPKI"],
        rows=rows,
    )
