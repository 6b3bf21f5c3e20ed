#!/usr/bin/env python3
"""Search-engine domain study: the paper's motivating application.

Runs the three search-engine workloads (Table 4): the Nutch-like online
server across the paper's 100..3200 req/s load sweep, plus the Index and
PageRank offline jobs, and prints a domain report -- the apples-to-apples
view a search-engine operator would want.

    python examples/search_engine_study.py
"""

from repro.core.harness import Harness
from repro.core.report import render_table
from repro.core.runspec import RunSpec
from repro.core.workload import SCALE_FACTORS


def serving_sweep(harness: Harness) -> str:
    rows = []
    for scale, outcome in zip(SCALE_FACTORS, harness.run_many(
            [RunSpec(workload="Nutch Server", scale=scale)
             for scale in SCALE_FACTORS])):
        details = outcome.result.details
        rows.append([
            f"{100 * scale} req/s",
            outcome.result.metric_value,
            details["latency_s"] * 1000,
            f"{details['utilization']:.0%}",
        ])
    return render_table(
        ["Offered load", "Achieved RPS", "Mean latency (ms)", "Utilization"],
        rows, title="Nutch Server: load sweep (paper Table 6 geometry)",
    )


def offline_jobs(harness: Harness) -> str:
    rows = []
    for name in ("Index", "PageRank"):
        outcome = harness.run(RunSpec(workload=name))
        result = outcome.result
        rows.append([
            name,
            f"{result.input_bytes / 1e6:.1f} MB",
            f"{result.metric_value / 2**20:.1f} MB/s",
            f"{outcome.modeled_seconds:.0f} s",
            outcome.events.l1i_mpki,
            result.details.get("correct"),
        ])
    return render_table(
        ["Job", "Input", "DPS", "Modeled time", "L1I MPKI", "Correct"],
        rows, title="Offline analytics behind the search engine",
    )


def main() -> None:
    harness = Harness()
    print(serving_sweep(harness))
    print()
    print(offline_jobs(harness))
    print()
    nutch = harness.run(RunSpec(workload="Nutch Server")).events
    index = harness.run(RunSpec(workload="Index")).events
    print("Characterization contrast (paper Section 6.3.2):")
    print(f"  Nutch Server L2 MPKI {nutch.l2_mpki:6.2f}  "
          f"(the paper's low-L2 exception among online services)")
    print(f"  Index        L2 MPKI {index.l2_mpki:6.2f}")


if __name__ == "__main__":
    main()
