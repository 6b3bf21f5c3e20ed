"""Unit tests for the span tracer: nesting, ordering, event deltas."""

import time

import pytest

from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    resolve_tracer,
)
from repro.uarch.hierarchy import XEON_E5645
from repro.uarch.perfctx import PerfContext


class TestNesting:
    def test_children_nest_under_open_parent(self):
        tracer = Tracer("t")
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        root = tracer.finish()
        assert root.name == "root"
        assert [c.name for c in root.children] == ["a", "b"]
        assert [c.name for c in root.children[0].children] == ["a1"]

    def test_walk_is_depth_first_preorder(self):
        tracer = Tracer("t")
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        root = tracer.finish()
        assert [s.name for s in root.walk()] == ["root", "a", "a1", "b"]

    def test_second_top_level_span_gets_synthetic_root(self):
        tracer = Tracer("job")
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        root = tracer.finish()
        assert root.name == "job"
        assert [c.name for c in root.children] == ["first", "second"]

    def test_finish_closes_dangling_spans_and_detaches(self):
        tracer = Tracer("t")
        tracer.span("root")
        tracer.span("child")
        root = tracer.finish()
        assert root.name == "root"
        assert root.end_wall >= root.start_wall
        assert tracer.root is None and not tracer._stack

    def test_finish_is_reusable(self):
        tracer = Tracer("t")
        with tracer.span("one"):
            pass
        first = tracer.finish()
        with tracer.span("two"):
            pass
        second = tracer.finish()
        assert (first.name, second.name) == ("one", "two")

    def test_attrs_and_set(self):
        tracer = Tracer("t")
        with tracer.span("s", category="mr", records=7) as sp:
            sp.set("late", True)
        root = tracer.finish()
        assert root.category == "mr"
        assert root.attrs == {"records": 7, "late": True}
        assert "__tracer__" not in root.attrs

    def test_find(self):
        tracer = Tracer("t")
        with tracer.span("root"):
            with tracer.span("needle"):
                pass
        root = tracer.finish()
        assert root.find("needle").name == "needle"
        assert root.find("missing") is None

    def test_wall_clock_ordering(self):
        tracer = Tracer("t")
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        root = tracer.finish()
        child = root.children[0]
        assert root.start_wall <= child.start_wall
        assert child.end_wall <= root.end_wall
        assert root.wall_seconds >= child.wall_seconds


class TestEventDeltas:
    def test_span_captures_exact_instruction_delta(self):
        ctx = PerfContext(XEON_E5645)
        tracer = Tracer("t")
        entry = ctx.events.copy()
        with tracer.span("outer", ctx=ctx):
            ctx.int_ops(1000)
            inner_entry = ctx.events.copy()
            with tracer.span("inner", ctx=ctx):
                ctx.int_ops(500)
            inner_expected = ctx.events.delta(inner_entry).instructions
            ctx.int_ops(250)
        root = tracer.finish()
        outer_expected = ctx.events.delta(entry).instructions
        assert outer_expected > 0 and inner_expected > 0
        assert root.instructions == pytest.approx(outer_expected)
        assert root.children[0].instructions == pytest.approx(inner_expected)
        assert root.self_instructions == pytest.approx(
            outer_expected - inner_expected)

    def test_self_instructions_sum_to_root(self):
        ctx = PerfContext(XEON_E5645)
        tracer = Tracer("t")
        with tracer.span("root", ctx=ctx):
            ctx.fp_ops(100)
            with tracer.span("a", ctx=ctx):
                ctx.int_ops(300)
                with tracer.span("a1", ctx=ctx):
                    ctx.branch_ops(40)
            with tracer.span("b", ctx=ctx):
                ctx.int_ops(60)
        root = tracer.finish()
        total = sum(s.self_instructions for s in root.walk())
        assert total == pytest.approx(root.instructions)

    def test_span_delta_has_the_misses_of_the_accesses_made_inside_it(self):
        """The context queues accesses and simulates them 65 536 at a
        time; a recording tracer settles it where a span opens and
        closes, so each span's delta is what a context simulating every
        pattern as it is declared shows between the same two points."""
        from unittest import mock

        from repro.uarch import lru

        def phases(ctx, boundary):
            ctx.seq_read("input", 1 << 20)             # before any span
            boundary("open outer")
            ctx.rand_read("table", 3e4)
            boundary("open inner")
            ctx.int_ops(3e7)                           # flushes a fetch run
            ctx.skewed_write("cache", 2e4)
            boundary("close inner")
            ctx.rand_read("table", 3e4)
            boundary("close outer")

        immediate, marks = PerfContext(XEON_E5645, seed=4), {}

        def snapshot(mark):
            immediate.settle()
            marks[mark] = immediate.events.copy()

        with mock.patch.object(lru, "DRAIN_AT", 1):
            phases(immediate, snapshot)

        ctx, tracer, scopes = PerfContext(XEON_E5645, seed=4), Tracer("t"), []

        def boundary(mark):
            if mark.startswith("open"):
                scopes.append(tracer.span(mark[5:], ctx=ctx))
            else:
                scopes.pop().__exit__(None, None, None)

        phases(ctx, boundary)
        outer = tracer.finish()
        (inner,) = outer.children
        assert outer.events == marks["close outer"].delta(marks["open outer"])
        assert inner.events == marks["close inner"].delta(marks["open inner"])
        assert inner.events.l1i_misses > 0 and inner.events.dtlb_misses > 0
        assert 0 < inner.events.mem_bytes < outer.events.mem_bytes

    def test_span_without_ctx_has_no_events(self):
        tracer = Tracer("t")
        with tracer.span("plain"):
            pass
        root = tracer.finish()
        assert root.events is None
        assert root.instructions == 0.0


class TestNullTracer:
    def test_null_span_is_shared_and_inert(self):
        tracer = NullTracer()
        span = tracer.span("anything", category="x", records=3)
        assert span is NULL_SPAN
        assert tracer.span("other") is NULL_SPAN
        with span as sp:
            sp.set("ignored", 1)
        assert NULL_SPAN.attrs == {}

    def test_ctx_span_routes_to_null_tracer_by_default(self):
        ctx = PerfContext(XEON_E5645)
        assert ctx.span("mr:map") is NULL_SPAN

    @pytest.mark.slow
    def test_disabled_tracing_costs_nothing_measurable(self):
        """The null span stays a fraction of a microsecond per call, and
        a traced run -- tens of spans -- stays near an untraced one."""
        ctx = PerfContext(XEON_E5645)
        calls = 200_000
        start = time.perf_counter()
        for _ in range(calls):
            with ctx.span("bench:null", category="bench"):
                pass
        per_call = (time.perf_counter() - start) / calls
        assert per_call < 5e-6, f"null span costs {per_call * 1e9:.0f} ns"

        def timed(trace):
            harness = Harness()  # a fresh memo: every run executes
            start = time.perf_counter()
            harness.run(RunSpec(workload="Grep", trace=trace))
            return time.perf_counter() - start

        untraced = min(timed(False) for _ in range(2))
        traced = timed(True)
        assert traced <= untraced * 1.5 + 1.0, (
            f"traced {traced:.2f}s vs untraced {untraced:.2f}s")

    def test_resolve_tracer(self):
        assert resolve_tracer(None) is NULL_TRACER
        assert resolve_tracer(False) is NULL_TRACER
        assert isinstance(resolve_tracer(True), Tracer)
        tracer = Tracer("mine")
        assert resolve_tracer(tracer) is tracer

    def test_enabled_flags(self):
        assert NULL_TRACER.enabled is False
        assert Tracer("t").enabled is True


class TestSpanDataclass:
    def test_wall_seconds_never_negative(self):
        span = Span(name="s", start_wall=10.0, end_wall=5.0)
        assert span.wall_seconds == 0.0
