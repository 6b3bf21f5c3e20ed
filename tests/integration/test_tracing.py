"""Integration: traced runs across the whole suite.

The acceptance bar for the observability layer: every Table 4 workload
produces a valid Chrome trace-event export whose per-phase instruction
deltas attribute the run's *entire* instruction count (exactly -- the
span deltas come from the same PerfEvents record the ProfileReport
summarizes), and a traced run's events are the untraced run's.  That
traces are bit-identical under ``jobs=N`` and from the disk cache is
``tests/integration/test_determinism.py``.
"""

import json

import pytest

from repro.core import registry
from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.obs.export import dump_json, trace_to_chrome

#: What only the cache/TLB simulation produces: a span has them because
#: a recording tracer drains and harvests the hierarchy at its boundaries.
SIMULATED = ("l1i_misses", "l1d_misses", "l2_misses", "l3_misses",
             "itlb_misses", "dtlb_misses", "mem_bytes")


@pytest.fixture(scope="module")
def traced_suite():
    harness = Harness(trace=True)
    specs = [RunSpec(workload=name) for name in registry.workload_names()]
    return {out.workload: out for out in harness.run_many(specs)}


@pytest.mark.parametrize("name", registry.workload_names())
def test_trace_attributes_all_instructions(traced_suite, name):
    outcome = traced_suite[name]
    root = outcome.trace
    assert root is not None, f"{name} has no trace"
    total = outcome.report.events.instructions
    assert root.instructions == pytest.approx(total, rel=1e-12), name
    attributed = sum(span.self_instructions for span in root.walk())
    assert attributed == pytest.approx(total, rel=1e-9), name


@pytest.mark.parametrize("name", registry.workload_names())
def test_spans_attribute_the_simulated_misses(traced_suite, name):
    """The root's delta *is* the report (the last fetch flush lands
    inside it), the ``run:`` span below it missed, and no span's
    children account for more than the span itself."""
    outcome = traced_suite[name]
    root = outcome.trace
    assert root.events == outcome.report.events
    run = root.find(f"run:{name}")
    assert run.events.l2_misses > 0 and run.events.mem_bytes > 0
    for span in root.walk():
        children = [c.events for c in span.children if c.events is not None]
        for field in SIMULATED:
            own = getattr(span.events, field)
            below = sum(getattr(events, field) for events in children)
            assert below <= own * (1 + 1e-9) + 1e-6, (span.name, field)
    for field in SIMULATED:
        attributed = sum(
            getattr(span.events, field)
            - sum(getattr(c.events, field) for c in span.children)
            for span in root.walk())
        assert attributed == pytest.approx(
            getattr(outcome.report.events, field), rel=1e-9), field


@pytest.mark.parametrize("name", registry.workload_names())
def test_chrome_export_is_valid_for_every_workload(traced_suite, name):
    outcome = traced_suite[name]
    doc = json.loads(dump_json(trace_to_chrome(
        outcome.trace, metadata={"workload": name})))
    events = doc["traceEvents"]
    assert len(events) >= 3   # characterize -> prepare + run -> engine spans
    for event in events:
        assert event["ph"] == "X"
        assert isinstance(event["name"], str) and event["name"]
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        assert "instructions" in event["args"]


def test_traces_cover_every_engine(traced_suite):
    spans = {span.name
             for out in traced_suite.values()
             for span in out.trace.walk()}
    # The default suite runs the multi-stack workloads on hadoop and the
    # queries on Hive (SQL compiled to MapReduce); pull in one spark-stack
    # run and one columnar (Impala-style) query for those engines' spans.
    harness = Harness()
    for workload, stack in (("WordCount", "spark"), ("Select Query", "impala")):
        extra = harness.run(RunSpec(workload=workload, stack=stack, trace=True))
        spans |= {span.name for span in extra.trace.walk()}
    # Store maintenance: scale-1 OLTP runs stay under the memtable budget,
    # so drive a flush + compaction directly under a traced context.
    from repro.nosql.store import LsmStore, StoreConfig
    from repro.obs.trace import Tracer
    from repro.uarch.hierarchy import XEON_E5645
    from repro.uarch.perfctx import PerfContext

    tracer = Tracer("store")
    ctx = PerfContext(XEON_E5645, tracer=tracer)
    with ctx.span("store:exercise"):
        store = LsmStore(ctx=ctx, config=StoreConfig(
            memtable_budget=4096, compaction_trigger=2))
        for i in range(64):
            store.put(f"key-{i:04d}".encode(), 256)
    spans |= {span.name for span in tracer.finish().walk()}
    for marker in ("mr:map", "mr:shuffle", "mr:reduce", "spark:stage",
                   "spark:shuffle", "sql:query", "nosql:flush",
                   "nosql:compact", "bsp:load", "serving:sample"):
        assert any(name.startswith(marker) for name in spans), marker


@pytest.mark.parametrize("name, span, category", [
    ("Select Query", "sql:query", "sql"),      # Hive: SQL as MapReduce jobs
    ("Read", "nosql:ops", "nosql"),
])
def test_engine_spans_at_the_default_stacks(traced_suite, name, span,
                                            category):
    """One span per statement / op loop, and opening it (a traced pass
    drains the recorded accesses at its boundaries) moves no event."""
    traced = traced_suite[name]
    found = [s for s in traced.trace.walk() if s.name == span]
    assert found and len(found) <= 8 and found[0].category == category
    assert found[0].instructions > 0
    untraced = Harness(cache=None).run(RunSpec(workload=name))
    assert repr(untraced.report.events) == repr(traced.report.events)


class TestDeterminism:
    WORKLOADS = ["Grep", "Sort"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_traced_and_untraced_results_agree(self, jobs):
        """A traced pass drains the recorded accesses at every span
        boundary, an untraced one 65 536 at a time: same events, and
        the root span's delta is exactly the untraced run's events."""
        traced = Harness(jobs=jobs).run_many(
            [RunSpec(workload=name, trace=True) for name in self.WORKLOADS])
        plain = Harness().run_many(
            [RunSpec(workload=name) for name in self.WORKLOADS])
        for ours, theirs in zip(traced, plain):
            assert theirs.trace is None
            assert ours.report.events == theirs.report.events
            assert ours.trace.events == theirs.report.events
            assert ours.result.metric_value == theirs.result.metric_value
