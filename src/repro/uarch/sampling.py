"""Stride-sampling plans for bulk access-pattern expansion.

Simulating every memory access of a multi-megabyte workload through a
Python cache model is infeasible, so the profiler contracts the problem:
the machine's cache/TLB capacities and all data regions are divided by a
global ``contraction`` factor ``k``, and each bulk pattern of ``count``
accesses is expanded into roughly ``count / k`` simulated accesses, each
carrying weight ``k``.  Because both the working sets and the capacities
shrink together, capacity and conflict behavior relative to the workload
is preserved, while the simulation cost drops by ``k``.

A per-call ``cap`` additionally bounds the number of simulated accesses
of any single pattern so pathological patterns cannot stall a run; the
weight absorbs the difference.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SamplePlan:
    """How to expand one bulk pattern: simulate ``count`` accesses, each
    standing for ``weight`` real accesses."""

    count: int
    weight: float

    @property
    def total(self) -> float:
        return self.count * self.weight


def plan_samples(total: float, contraction: int, cap: int = 65536) -> SamplePlan:
    """Choose how many accesses to simulate for a pattern of ``total`` real
    accesses under the global ``contraction`` factor.

    Guarantees at least one simulated access for any positive pattern, and
    never more than ``cap``.
    """
    if total <= 0:
        return SamplePlan(count=0, weight=0.0)
    if contraction <= 0:
        raise ValueError("contraction must be positive")
    if cap <= 0:
        raise ValueError("the sample cap must be positive")
    target = total / contraction
    count = int(min(max(1.0, target), cap))
    return SamplePlan(count=count, weight=total / count)
