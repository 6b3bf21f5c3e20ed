"""Roofline analysis: where the suite sits under the machine's roofs.

The paper defines operation intensity following Williams et al.'s
roofline model (its citation [28]) and concludes the big data workloads
are memory-bound with an over-provisioned floating-point unit.  This
module makes that quantitative: attainable GFLOP/s (or GIOP/s) is
``min(peak compute, intensity x memory bandwidth)``, and each workload's
position under the roof says which resource bounds it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.report import render_table
from repro.core.runspec import RunSpec
from repro.uarch.hierarchy import MachineConfig, XEON_E5645


@dataclass(frozen=True)
class RooflineMachine:
    """Peak rates of one processor for the roofline plot."""

    machine: MachineConfig
    peak_fp_gops: float       # GFLOP/s per socket group
    peak_int_giops: float     # integer GIOP/s
    memory_bandwidth_gbs: float

    def attainable(self, intensity: float, peak: float) -> float:
        """The roofline: min(compute roof, bandwidth slope)."""
        if intensity < 0:
            raise ValueError("intensity must be non-negative")
        return min(peak, intensity * self.memory_bandwidth_gbs)

    @property
    def fp_ridge_point(self) -> float:
        """Intensity where the FP roof meets the bandwidth slope."""
        return self.peak_fp_gops / self.memory_bandwidth_gbs

    @property
    def int_ridge_point(self) -> float:
        return self.peak_int_giops / self.memory_bandwidth_gbs


#: Xeon E5645 node: 12 cores x 2.4 GHz x 4 FP ops (SSE2 DP) ~ 115 GFLOP/s;
#: ~3 integer ops per cycle per core; 3-channel DDR3-1333 x 2 sockets.
E5645_ROOFLINE = RooflineMachine(
    machine=XEON_E5645,
    peak_fp_gops=115.0,
    peak_int_giops=86.0,
    memory_bandwidth_gbs=64.0,
)


@dataclass(frozen=True)
class RooflinePoint:
    """One workload's position under the roofs."""

    workload: str
    fp_intensity: float
    int_intensity: float
    attainable_fp_gops: float
    attainable_int_giops: float
    fp_bound: str   # "memory" or "compute"
    int_bound: str


def roofline_points(harness, names, machine: RooflineMachine = E5645_ROOFLINE) -> list:
    """Place each workload on the roofline."""
    points = []
    for name in names:
        events = harness.run(RunSpec(workload=name)).events
        fp_i = events.fp_intensity
        int_i = events.int_intensity
        points.append(RooflinePoint(
            workload=name,
            fp_intensity=fp_i,
            int_intensity=int_i,
            attainable_fp_gops=machine.attainable(fp_i, machine.peak_fp_gops),
            attainable_int_giops=machine.attainable(int_i, machine.peak_int_giops),
            fp_bound="memory" if fp_i < machine.fp_ridge_point else "compute",
            int_bound="memory" if int_i < machine.int_ridge_point else "compute",
        ))
    return points


def render_roofline(points: list, machine: RooflineMachine = E5645_ROOFLINE) -> str:
    """ASCII roofline summary for a set of workloads."""
    rows = [
        [p.workload, p.fp_intensity, p.attainable_fp_gops, p.fp_bound,
         p.int_intensity, p.attainable_int_giops, p.int_bound]
        for p in points
    ]
    title = (
        f"Roofline on {machine.machine.name} "
        f"(FP ridge at {machine.fp_ridge_point:.2f} ops/B, "
        f"INT ridge at {machine.int_ridge_point:.2f} ops/B)"
    )
    return render_table(
        ["Workload", "FP ops/B", "FP GOP/s", "FP bound",
         "INT ops/B", "INT GOP/s", "INT bound"],
        rows, title=title,
    )
