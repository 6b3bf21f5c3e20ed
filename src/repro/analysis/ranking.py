"""Suite-level scoring: rank system configurations by DPS/OPS/RPS.

The paper adopts DPS from CloudRank-D (its citation [22]), whose purpose
is *ranking* data-processing systems.  This module closes that loop: a
configuration (cluster x stack choices) gets one score per metric class
-- the geometric mean of its workloads' user-perceivable metrics -- so
two setups can be compared the way the benchmark's users would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core import registry
from repro.core.harness import Harness
from repro.core.report import render_table
from repro.core.runspec import RunSpec


@dataclass(frozen=True)
class SuiteScore:
    """Scores of one configuration."""

    label: str
    dps_score: float     # geometric mean over analytics workloads (bytes/s)
    ops_score: float     # geometric mean over Cloud OLTP workloads
    rps_score: float     # geometric mean over service workloads
    per_workload: dict = field(hash=False, default_factory=dict)


def geometric_mean(values: list) -> float:
    positives = [v for v in values if v > 0]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


def score_configurations(harness: Harness, configurations: dict,
                         scale: int = 1, names: list = None) -> list:
    """Run (or reuse) the suite under each configuration and score it.

    ``configurations`` maps a label to its stack overrides (workload
    name -> stack, e.g. all the multi-stack analytics on "spark"; None
    for none).  Every configuration's points go to one ``run_many``, so
    a ``jobs`` > 1 harness fans them all out through one pool.
    """
    names = names or registry.workload_names()
    points = iter(harness.run_many([
        RunSpec(workload=name, scale=scale, stack=(stacks or {}).get(name))
        for stacks in configurations.values() for name in names]))
    scores = []
    for label in configurations:
        per_workload = {name: (outcome.result.metric_name,
                               outcome.result.metric_value)
                        for name, outcome in zip(names, points)}
        groups = {"DPS": [], "OPS": [], "RPS": []}
        for metric, value in per_workload.values():
            groups[metric].append(value)
        scores.append(SuiteScore(
            label=label,
            dps_score=geometric_mean(groups["DPS"]),
            ops_score=geometric_mean(groups["OPS"]),
            rps_score=geometric_mean(groups["RPS"]),
            per_workload=per_workload,
        ))
    return scores


def render_ranking(scores: list) -> str:
    """Rank configurations by their analytics (DPS) score."""
    ordered = sorted(scores, key=lambda s: s.dps_score, reverse=True)
    rows = [
        [rank + 1, score.label, score.dps_score, score.ops_score,
         score.rps_score]
        for rank, score in enumerate(ordered)
    ]
    return render_table(
        ["Rank", "Configuration", "DPS score", "OPS score", "RPS score"],
        rows, title="Suite ranking (geometric means, CloudRank-D style)",
    )
