"""Same spec, same bits: every execution path reproduces a serial run.

Every random decision in the suite is a hash of (seed, site)
(:mod:`repro.sitehash`) and every input a pure function of
``(scale, seed)``, so *how* a spec runs may change wall-clock only:
fanned out over worker processes, reading memory-mapped inputs from a
cold and then a warm store, or replayed from the result cache.
One spec list covers every family -- MapReduce, Spark, the traced path,
a scaled input, graph and table inputs, fault plans, the serving load
plane and the scenario backends -- and one fingerprint covers
everything a figure, table, trace or chaos report could read.
"""

from dataclasses import asdict

import pytest

from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.core.store import Store

SERVING = "constant:duration=5@shed"

SPECS = [
    RunSpec(workload="Sort"),
    RunSpec(workload="Sort", stack="spark"),
    RunSpec(workload="Grep", trace=True),
    RunSpec(workload="Grep", scale=4),
    RunSpec(workload="WordCount"),
    RunSpec(workload="BFS"),
    RunSpec(workload="Select Query"),
    RunSpec(workload="Grep", seed=5,
            faults="task_crash:rate=0.5;straggler:rate=0.2;node_kill:node=1"),
    RunSpec(workload="Select Query", seed=5, faults="task_crash:rate=0.5"),
    RunSpec(workload="Nutch Server", seed=3, serving=SERVING),
    RunSpec(workload="Rubis Server", seed=3, serving=SERVING),
    RunSpec(workload="Scenario Orders", stack="dict", seed=5),
    RunSpec(workload="Scenario Orders", stack="lsm", seed=5),
]


def fingerprint(outcome):
    # An ``artifact`` span records where an input came from -- the one
    # thing a store is meant to change.
    trace = None if outcome.trace is None else [
        (span.name, span.category, span.events)
        for span in outcome.trace.walk() if span.category != "artifact"]
    report, result = outcome.report, outcome.result
    return (asdict(report.events), report.cycles, report.seconds,
            result.metric_name, result.metric_value, result.input_bytes,
            outcome.stack, result.details, outcome.fault_events, trace)


@pytest.fixture(scope="module")
def reference():
    return [fingerprint(out)
            for out in Harness(artifacts=False).run_many(SPECS)]


def test_worker_processes(reference):
    fanned = Harness(artifacts=False).run_many(SPECS, jobs=2)
    assert [fingerprint(out) for out in fanned] == reference


def test_artifact_store_and_disk_cache(reference, tmp_path):
    """A cold store generates and maps every input, a warm one only maps
    them; the cold run also writes the disk cache a fresh harness then
    answers every spec from."""
    store = Store(str(tmp_path / "artifacts"))
    cold = Harness(artifacts=store, cache=Store(str(tmp_path / "cache")))
    assert [fingerprint(out) for out in cold.run_many(SPECS)] == reference
    cold_hits = store.hits
    warm = Harness(artifacts=store).run_many(SPECS)
    assert store.hits > cold_hits
    assert [fingerprint(out) for out in warm] == reference
    reader = Store(str(tmp_path / "cache"))
    replayed = Harness(cache=reader).run_many(SPECS)
    assert reader.hits == len(SPECS)
    assert [fingerprint(out) for out in replayed] == reference
