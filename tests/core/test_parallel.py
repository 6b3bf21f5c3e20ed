"""Parallel execution: bit-identical results and memo merging.

The contract of :mod:`repro.core.parallel`: fanning the points of
``Harness.run_many`` across worker processes changes wall-clock behavior
only -- every event count, metric, and modeled time is identical to the
serial path because each point runs a fresh deterministic
``prepare(scale, seed)`` and a fresh ``PerfContext(machine, seed)``
either way.
"""

import dataclasses

import pytest

from repro.core.harness import Harness
from repro.core.runspec import RunSpec

#: A representative subset: batch MapReduce, micro, and an online service.
NAMES = ["Sort", "Grep", "Nutch Server"]


def _specs(names=NAMES, scales=(1,)):
    return [RunSpec(workload=name, scale=scale)
            for name in names for scale in scales]


def _snapshot(point):
    """Everything a figure/table could consume from one point."""
    return (
        dataclasses.asdict(point.report.events),
        point.report.cycles,
        point.report.seconds,
        point.result.metric_name,
        point.result.metric_value,
        point.result.input_bytes,
        point.stack,
    )


class TestParallelDeterminism:
    @pytest.fixture(scope="class")
    def serial_points(self):
        return Harness().run_many(_specs())

    def test_suite_bit_identical(self, serial_points):
        parallel_points = Harness(jobs=2).run_many(_specs())
        assert [p.workload for p in parallel_points] == NAMES
        for serial, parallel in zip(serial_points, parallel_points):
            assert _snapshot(serial) == _snapshot(parallel), serial.workload

    def test_sweep_bit_identical(self):
        scales = (1, 4)
        serial = Harness().run_many(_specs(["Grep"], scales))
        parallel = Harness().run_many(_specs(["Grep"], scales), jobs=2)
        assert [p.scale for p in parallel] == list(scales)
        for a, b in zip(serial, parallel):
            assert _snapshot(a) == _snapshot(b)

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

