#!/usr/bin/env python3
"""Quickstart: run one BigDataBench workload end to end.

Prepares a BDGS-synthesized input, executes WordCount on the Hadoop-like
MapReduce engine under the simulated Xeon E5645, and prints both views
the paper cares about: the user-perceivable metric (DPS) and the
micro-architectural profile.

    python examples/quickstart.py
"""

from repro.core import registry
from repro.core.harness import Harness
from repro.core.runspec import RunSpec


def main() -> None:
    print("BigDataBench reproduction -- quickstart")
    print(f"Workloads available: {', '.join(registry.workload_names())}\n")

    outcome = Harness(cache=True).run(RunSpec(workload="WordCount", scale=1))
    result = outcome.result
    events = outcome.events

    info = registry.info("WordCount")
    print(f"Workload:  {info.name}  ({info.scenario}, {info.app_type})")
    print(f"Input:     {result.input_bytes / 1e6:.1f} MB of synthetic text "
          f"(stands for {info.input_description})")
    print(f"Stack:     {result.stack}")
    print(f"Correct:   {result.details['correct']} "
          f"({result.details['distinct']} distinct words)\n")

    print("User-perceivable metric (Section 6.1.2):")
    print(f"  {result.metric_name} = {result.metric_value / 2**20:.1f} MB/s "
          f"(modeled, paper-scale cluster)\n")

    print("Architectural profile on the Xeon E5645 (Section 6.3):")
    print(f"  instructions     {events.instructions:.3e}")
    print(f"  L1I cache MPKI   {events.l1i_mpki:8.2f}")
    print(f"  L2 cache MPKI    {events.l2_mpki:8.2f}")
    print(f"  L3 cache MPKI    {events.l3_mpki:8.2f}")
    print(f"  ITLB MPKI        {events.itlb_mpki:8.3f}")
    print(f"  DTLB MPKI        {events.dtlb_mpki:8.3f}")
    print(f"  int/FP ratio     {events.int_fp_ratio:8.1f}")
    print(f"  FP intensity     {events.fp_intensity:8.5f} ops/byte")
    print(f"  aggregate MIPS   {outcome.mips:8.0f}")


if __name__ == "__main__":
    main()
