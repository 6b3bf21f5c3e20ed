"""Memory of the shuffle plan build: the plan plus its working set.

:func:`repro.cluster.vector.flow_order` hashes an ``n x n`` grid, sorts
its ``n (n - 1)`` flows and walks their level schedule; every temporary
(grid, sort keys, permutation, queue links, endpoint grouping) is
released once the next step no longer needs it, and the fold cells are
formed one ``GUIDE_CHUNK`` at a time.  This pins the build's tracemalloc
peak over the bytes of the plan it returns at 400 alive nodes: measured
2.32, the budget 25 % above it.  A build that keeps the grid, the keys or
the links past their use lands above it (one that kept all of them
measured 5.06).
"""

from repro.cluster.vector import flow_order
from tests.peaks import traced_peak

NODES = 400

#: Peak over plan bytes at ``NODES``, 25 % above the measured 2.32.
BUDGET = 2.9


def test_flow_order_peak_stays_within_its_budget():
    flow_order(0, "budget:warm", tuple(range(8)), 8)   # numpy's first calls
    alive = tuple(range(NODES))
    plan, peak = traced_peak(lambda: flow_order(0, "budget", alive, NODES))
    plan_bytes = sum(array.nbytes for array in (
        plan.src, plan.dst, plan.cell_src, plan.cell_dst))
    ratio = peak / plan_bytes
    assert ratio <= BUDGET, (
        f"flow_order at {NODES} nodes peaked at {peak / 2**20:.1f} MB, "
        f"{ratio:.2f}x its plan (budget {BUDGET}x)")
