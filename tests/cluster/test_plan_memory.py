"""Memory of the shuffle plan: its build, what it keeps, its replay.

:func:`repro.cluster.vector.flow_order` hashes an ``n x n`` grid, sorts
its ``n (n - 1)`` flows and walks their level schedule; every temporary
(grid, sort keys, permutation, queue links, endpoint grouping) is
released once the next step no longer needs it, and the fold cells are
formed one ``GUIDE_CHUNK`` at a time.  The plan it keeps is the two
int32 fold cells of every flow, 8 B per flow.  A replay that finds the
plan cached holds the ``(nodes, width)`` busy-net fold block (16 B per
flow) and one ``GUIDE_CHUNK`` of endpoints and durations.

Each budget is in bytes per flow at 400 alive nodes, 25 % above the
measurement:

* the build's tracemalloc peak: measured 66.1 (74.1 while the cells
  were int64; one that kept the grid, the keys and the links measured
  161.9);
* the plan kept: at most 8 (the plan that also kept both endpoints as
  int64 held 32);
* a warm replay's peak above its cached plan: measured 30.1 (48.8 when
  the durations of all flows and a second fold block were held).
"""

from repro.cluster import ClusterSim, JobCost, PAPER_CLUSTER, PhaseCost
from repro.cluster.vector import flow_order
from tests.peaks import traced_peak

NODES = 400
FLOWS = NODES * (NODES - 1)

#: The build's peak per flow, 25 % above the measured 66.1.
BUILD_BUDGET = 82.6

#: Bytes per flow the plan keeps: its two int32 fold cells.
PLAN_BUDGET = 8.0

#: A warm replay's peak per flow, 25 % above the measured 30.1.
REPLAY_BUDGET = 37.6


def test_flow_order_peak_stays_within_its_budget():
    flow_order(0, "budget:warm", tuple(range(8)), 8)   # numpy's first calls
    alive = tuple(range(NODES))
    plan, peak = traced_peak(lambda: flow_order(0, "budget", alive, NODES))
    per_flow = peak / FLOWS
    assert per_flow <= BUILD_BUDGET, (
        f"flow_order at {NODES} nodes peaked at {peak / 2**20:.1f} MB, "
        f"{per_flow:.1f} B per flow (budget {BUILD_BUDGET})")
    assert plan.nbytes / FLOWS <= PLAN_BUDGET, (
        f"the plan keeps {plan.nbytes / FLOWS:.1f} B per flow "
        f"(budget {PLAN_BUDGET})")


def test_warm_shuffle_peak_stays_within_its_budget():
    job = JobCost().add(PhaseCost(name="exchange", shuffle_bytes=40 * 2**30))
    cluster = PAPER_CLUSTER.scaled(NODES)
    cold = ClusterSim(cluster, seed=0).run(job)      # caches the plan
    warm, peak = traced_peak(lambda: ClusterSim(cluster, seed=0).run(job))
    assert warm.seconds == cold.seconds
    per_flow = peak / FLOWS
    assert per_flow <= REPLAY_BUDGET, (
        f"a warm {NODES}-node shuffle peaked at {peak / 2**20:.1f} MB "
        f"above its plan, {per_flow:.1f} B per flow "
        f"(budget {REPLAY_BUDGET})")
