"""Parallel execution: memo merging, order and the serial shortcut.

That fanned-out points are bit-identical to serial ones is
``tests/integration/test_determinism.py``.
"""

from repro.core.harness import Harness
from repro.core.runspec import RunSpec

#: A representative subset: batch MapReduce, micro, and an online service.
NAMES = ["Sort", "Grep", "Nutch Server"]


def _specs(names=NAMES):
    return [RunSpec(workload=name) for name in names]


class TestParallelDeterminism:
    def test_results_merged_into_memo(self):
        harness = Harness(jobs=2)
        first = harness.run_many(_specs())
        second = harness.run_many(_specs())
        for a, b in zip(first, second):
            assert a is b  # memo hit: no re-execution, no re-pickling

    def test_single_point_takes_serial_path(self):
        # One missing point never pays process-pool overhead.
        harness = Harness(jobs=4)
        (point,) = harness.run_many(_specs(["Grep"]))
        assert point.workload == "Grep"

    def test_run_many_preserves_order_and_stacks(self):
        harness = Harness(jobs=2)
        specs = [RunSpec(workload="Sort", stack="spark"),
                 RunSpec(workload="Grep"),
                 RunSpec(workload="Sort", stack="hadoop")]
        points = harness.run_many(specs)
        assert [(p.workload, p.stack) for p in points] == [
            ("Sort", "spark"), ("Grep", "hadoop"), ("Sort", "hadoop")]

