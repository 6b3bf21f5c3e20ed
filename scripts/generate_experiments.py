#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: every paper table/figure, paper-vs-measured.

Runs the full characterization (all 19 workloads on both machines, the
Table 6 data sweep, and the four traditional suites) and writes the
paper-versus-measured record.  Takes ~15 minutes.

    python scripts/generate_experiments.py [output-path]
"""

import sys
import time

from repro.analysis import (
    build_figures,
    figure2,
    figure3_mips,
    figure3_speedup,
    render_paper_table,
)
from repro.analysis import paper_reference as ref
from repro.core.harness import Harness
from repro.uarch import XEON_E5645


def fence(text: str) -> str:
    return f"```\n{text}\n```\n"


def compare_rows(title, pairs):
    lines = [f"| {title} | paper | measured |", "|---|---|---|"]
    for label, paper_value, measured in pairs:
        lines.append(f"| {label} | {paper_value} | {measured:.3g} |")
    return "\n".join(lines) + "\n"


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    started = time.time()
    harness = Harness(machine=XEON_E5645)

    sections = []
    sections.append(
        "# EXPERIMENTS — paper vs. measured\n\n"
        "Generated by `python scripts/generate_experiments.py` against the\n"
        "simulated testbed (DESIGN.md).  The reproduction targets the\n"
        "paper's *qualitative* findings: orderings, ratios, and trends.\n"
        "Paper numbers are those stated in the text; unannotated figure\n"
        "bars are compared by shape.\n"
    )

    # ---- Tables 1-7 -------------------------------------------------------
    sections.append("## Tables 1–7\n")
    sections.append(
        "All seven tables are regenerated from live objects "
        "(`repro.analysis.tables`; test "
        "`tests/core/test_harness_and_report.py::TestPaperTables`). "
        "Tables 1 and 3 are survey/schema content; Tables 2, 4, 5, 6, 7 "
        "derive from the seed registry, workload registry, machine "
        "configs, and experiment geometry, so they cannot drift from the "
        "implementation.\n"
    )
    for name in ("Table 2", "Table 4", "Table 5", "Table 6", "Table 7"):
        sections.append(fence(render_paper_table(name)))

    # ---- Figures 4-6: one events pass on both machines -------------------
    print("figures 4-6 ...", flush=True)
    events = build_figures(harness, ("4", "5", "6"))

    # ---- Figure 4 ---------------------------------------------------------
    fig4 = events["figure4"]
    sections.append("## Figure 4 — instruction breakdown\n")
    sections.append(fence(fig4.render()))
    ratios = {row[0]: row[-1] for row in fig4.rows}
    sections.append(compare_rows("int/FP ratio", [
        ("Avg_BigData", ref.INT_FP_RATIO["Avg_BigData"], ratios["Avg_BigData"]),
        ("Grep (suite max)", ref.INT_FP_RATIO["Grep"], ratios["Grep"]),
        ("Naive Bayes (suite min)", ref.INT_FP_RATIO["Naive Bayes"],
         ratios["Naive Bayes"]),
        ("Avg_HPCC", ref.INT_FP_RATIO["Avg_HPCC"], ratios["Avg_HPCC"]),
        ("Avg_PARSEC", ref.INT_FP_RATIO["Avg_PARSEC"], ratios["Avg_PARSEC"]),
        ("Avg_SPECINT", ref.INT_FP_RATIO["Avg_SPECINT"], ratios["Avg_SPECINT"]),
    ]))
    sections.append(
        "\nHolds: Grep is the suite maximum; the Bayes/K-means pair sits "
        "at the FP-heavy minimum (paper min 10); the big data average is "
        "~2 orders of magnitude above HPCC/PARSEC/SPECFP with SPECINT the "
        "only exception above it.\n"
    )

    # ---- Figure 5 ---------------------------------------------------------
    fig51, fig52 = events["figure5_fp"], events["figure5_int"]
    sections.append("## Figure 5 — operation intensity (E5310 vs E5645)\n")
    sections.append(fence(fig51.render()))
    sections.append(fence(fig52.render()))
    fp = {row[0]: row for row in fig51.rows}
    ii = {row[0]: row for row in fig52.rows}
    sections.append(compare_rows("FP intensity on E5645", [
        ("Avg_BigData", ref.FP_INTENSITY["E5645"]["Avg_BigData"],
         fp["Avg_BigData"][2]),
        ("Avg_HPCC", ref.FP_INTENSITY["E5645"]["Avg_HPCC"], fp["Avg_HPCC"][2]),
        ("Avg_PARSEC", ref.FP_INTENSITY["E5645"]["Avg_PARSEC"],
         fp["Avg_PARSEC"][2]),
        ("Avg_SPECFP", ref.FP_INTENSITY["E5645"]["Avg_SPECFP"],
         fp["Avg_SPECFP"][2]),
    ]))
    sections.append(compare_rows("Integer intensity on E5645", [
        ("Avg_BigData", ref.INT_INTENSITY["E5645"]["Avg_BigData"],
         ii["Avg_BigData"][2]),
        ("Avg_HPCC", ref.INT_INTENSITY["E5645"]["Avg_HPCC"], ii["Avg_HPCC"][2]),
        ("Avg_SPECINT", ref.INT_INTENSITY["E5645"]["Avg_SPECINT"],
         ii["Avg_SPECINT"][2]),
    ]))
    sections.append(
        "\nHolds: big data FP intensity is orders below the FP suites and "
        "integer intensity is the same order as traditional benchmarks "
        "(C1); intensity on the E5645 exceeds the E5310 for the big data "
        "average and for HPCC (C5 — the L3 effect).\n"
    )

    # ---- Figure 6 ---------------------------------------------------------
    fig61, fig62 = events["figure6_cache"], events["figure6_tlb"]
    sections.append("## Figure 6 — memory hierarchy\n")
    sections.append(fence(fig61.render()))
    sections.append(fence(fig62.render()))
    l1i = dict(zip(fig61.column("Workload"), fig61.column("L1I MPKI")))
    l2 = dict(zip(fig61.column("Workload"), fig61.column("L2 MPKI")))
    l3 = dict(zip(fig61.column("Workload"), fig61.column("L3 MPKI")))
    dtlb = dict(zip(fig62.column("Workload"), fig62.column("DTLB MPKI")))
    itlb = dict(zip(fig62.column("Workload"), fig62.column("ITLB MPKI")))
    sections.append(compare_rows("L1I MPKI", [
        ("Avg_BigData", ref.L1I_MPKI["Avg_BigData"], l1i["Avg_BigData"]),
        ("Avg_HPCC", ref.L1I_MPKI["Avg_HPCC"], l1i["Avg_HPCC"]),
        ("Avg_PARSEC", ref.L1I_MPKI["Avg_PARSEC"], l1i["Avg_PARSEC"]),
        ("Avg_SPECINT", ref.L1I_MPKI["Avg_SPECINT"], l1i["Avg_SPECINT"]),
    ]))
    sections.append(compare_rows("L2 MPKI", [
        ("Avg_BigData", ref.L2_MPKI["Avg_BigData"], l2["Avg_BigData"]),
        ("Nutch Server (low outlier)", ref.L2_MPKI["Nutch Server"],
         l2["Nutch Server"]),
        ("BFS (analytics outlier)", ref.L2_MPKI["BFS"], l2["BFS"]),
        ("Avg_SPECINT", ref.L2_MPKI["Avg_SPECINT"], l2["Avg_SPECINT"]),
    ]))
    sections.append(compare_rows("L3 MPKI", [
        ("Avg_BigData", ref.L3_MPKI["Avg_BigData"], l3["Avg_BigData"]),
        ("Avg_HPCC", ref.L3_MPKI["Avg_HPCC"], l3["Avg_HPCC"]),
        ("Avg_PARSEC", ref.L3_MPKI["Avg_PARSEC"], l3["Avg_PARSEC"]),
    ]))
    sections.append(compare_rows("TLB MPKI", [
        ("ITLB Avg_BigData", ref.ITLB_MPKI["Avg_BigData"], itlb["Avg_BigData"]),
        ("DTLB Avg_BigData", ref.DTLB_MPKI["Avg_BigData"], dtlb["Avg_BigData"]),
        ("DTLB BFS (max)", ref.DTLB_MPKI["BFS"], dtlb["BFS"]),
        ("DTLB Nutch Server (min)", ref.DTLB_MPKI["Nutch Server"],
         dtlb["Nutch Server"]),
    ]))
    sections.append(
        "\nHolds: L1I MPKI at least 4x every traditional suite (C3); L2 "
        "above all of them with the online services highest and Nutch the "
        "exception; L3 *below* HPCC/PARSEC/SPECINT — the LLC is effective; "
        "ITLB/DTLB above traditional with BFS the DTLB maximum and Nutch "
        "the minimum (C4).\n"
    )

    # ---- Figures 2 and 3 ----------------------------------------------------
    print("figures 2-3 (full data sweep) ...", flush=True)
    fig2 = figure2(harness)
    sections.append("## Figure 2 — L3 MPKI, small vs large input\n")
    sections.append(fence(fig2.render()))
    large = dict(zip(fig2.column("Workload"), fig2.column("Large Input")))
    small = dict(zip(fig2.column("Workload"), fig2.column("Small Input")))
    sections.append(compare_rows("volume gap", [
        ("K-means L3 large/small", ref.VOLUME["K-means L3 large/small"],
         large["K-means"] / small["K-means"]),
    ]))
    sections.append(
        "\nHolds: workloads diverge under volume — some rise (K-means, "
        "BFS), some barely move (Index-like), matching the paper's "
        "lesson that input size materially changes cache behavior.  "
        "Deviation: the paper names Sort lower / Grep higher on large "
        "inputs; our Sort/Grep directions are swapped, though both remain "
        "small movers compared with K-means.\n"
    )

    fig31 = figure3_mips(harness)
    fig32 = figure3_speedup(harness)
    sections.append("## Figure 3 — MIPS and normalized performance vs scale\n")
    sections.append(fence(fig31.render()))
    sections.append(fence(fig32.render()))
    mips_rows = {row[0]: row[1:] for row in fig31.rows}
    sections.append(compare_rows("MIPS 32x / baseline", [
        ("Grep", ref.VOLUME["Grep MIPS 32x/baseline"],
         mips_rows["Grep"][-1] / mips_rows["Grep"][0]),
    ]))
    speedups = {row[0]: row[1:] for row in fig32.rows}
    sections.append(
        f"\nHolds: different workloads trend differently (C2): Grep/"
        f"WordCount/K-means amortize fixed job overheads and speed up; "
        f"Sort degrades to {speedups['Sort'][-1]:.2f}x at 32x from memory "
        f"spill and shuffle congestion (the paper's explicit explanation); "
        f"service workloads track offered load until the front-end "
        f"saturates.  Deviation: our Grep MIPS ratio "
        f"({mips_rows['Grep'][-1] / mips_rows['Grep'][0]:.2f}x) is below "
        f"the paper's 2.9x — our fixed-overhead share at baseline is "
        f"smaller than the real testbed's.\n"
    )

    sections.append(
        "## Reproduction inventory\n\n"
        "| Experiment | Test | Status |\n|---|---|---|\n"
        "| Table 1–7 | `tests/core/test_harness_and_report.py::TestPaperTables` | regenerated |\n"
        "| Figure 2 | `test_paper_claims.py::TestC2DataVolume` | shape holds (see deviation) |\n"
        "| Figure 3-1 | `test_paper_claims.py::TestC2DataVolume::test_figure3_mips_trends_differ` | shape holds |\n"
        "| Figure 3-2 | `test_paper_claims.py::TestC2DataVolume::test_figure3_speedup_sort_degrades_services_scale` | shape holds |\n"
        "| Figure 4 | `test_paper_claims.py::TestC1OperationIntensity` | holds |\n"
        "| Figure 5-1/5-2 | `test_paper_claims.py::TestC1OperationIntensity`, `TestC5LevelThreeCache` | holds |\n"
        "| Figure 6-1/6-2 | `test_paper_claims.py::TestC3CacheBehavior`, `TestC4TlbBehavior` | holds |\n"
        "| Stack ablation (future work in paper) | `test_paper_claims.py::TestStackAblation` | new |\n"
        "| Engine ablation (Table 4 stacks) | `tests/workloads/test_service_oltp_query.py::TestStackColumnAblation` | new |\n"
        "| Cache ablation | `TestC5LevelThreeCache`, `tests/uarch/test_hierarchy.py::TestLastLevelCapacity` | new |\n"
        "| Sampling validity | `tests/uarch/test_codemodel_regions_sampling.py::TestContractionStability` | new |\n"
        "| BDGS veracity | `tests/datagen/test_seeds_formats_veracity.py::TestVeracityC6` | new |\n"
    )

    elapsed = time.time() - started
    sections.append(f"\n_Generated in {elapsed:.0f} s._\n")
    with open(out_path, "w") as handle:
        handle.write("\n".join(sections))
    print(f"wrote {out_path} in {elapsed:.0f}s")


if __name__ == "__main__":
    main()
