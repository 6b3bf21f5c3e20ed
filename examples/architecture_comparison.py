#!/usr/bin/env python3
"""Architecture study: three cache levels (E5645) vs two (E5310).

Reproduces the paper's C5 analysis interactively: the same workloads on
both testbed processors, showing how the 12 MB L3 cuts memory traffic
and lifts operation intensity for big data workloads.

    python examples/architecture_comparison.py
"""

from repro.core.harness import Harness
from repro.core.report import render_table
from repro.core.runspec import RunSpec
from repro.uarch import XEON_E5310, XEON_E5645

PROBES = ("Sort", "WordCount", "K-means", "Read", "Olio Server")


def main() -> None:
    on_e5645 = Harness(machine=XEON_E5645)
    on_e5310 = Harness(machine=XEON_E5310)

    rows = []
    for name in PROBES:
        new = on_e5645.run(RunSpec(workload=name)).events
        old = on_e5310.run(RunSpec(workload=name)).events
        rows.append([
            name,
            new.int_intensity, old.int_intensity,
            new.int_intensity / max(old.int_intensity, 1e-12),
            new.mem_bytes / max(new.instructions, 1),
            old.mem_bytes / max(old.instructions, 1),
        ])
    print(render_table(
        ["Workload", "intI E5645", "intI E5310", "gain",
         "DRAM B/instr E5645", "DRAM B/instr E5310"],
        rows, title="Operation intensity with and without an L3",
    ))
    print()
    print("Reading: the E5645's L3 absorbs the working sets that the")
    print("E5310 sends to DRAM, so the same instructions move fewer")
    print("memory bytes -- the paper's explanation for Figure 5 and its")
    print("multi-core design lesson (invest in cache area/energy).")


if __name__ == "__main__":
    main()
