"""Structured span tracing: where time and instructions go inside a run.

The paper characterizes *whole* workload runs with hardware counters;
diagnosing a suite, however, needs phase-level breakdowns -- which
MapReduce phase, Spark stage, SQL operator, or store maintenance step
actually consumed the instructions (Jia et al., "Characterizing and
Subsetting Big Data Workloads").  This module is the zero-dependency
substrate: a :class:`Tracer` producing a tree of :class:`Span` records,
each carrying wall-clock time and -- when a profiling context is
attached -- the exact :class:`~repro.uarch.events.PerfEvents` delta
accumulated between span entry and exit.

Two implementations share the interface (mirroring
``PerfContext``/``NullPerfContext``):

* :class:`Tracer` -- records spans.
* :class:`NullTracer` -- every ``span()`` returns a shared no-op scope,
  so instrumented engines run at full speed when tracing is off.

Engines never import this module directly; they open spans through
``ctx.span("mr:map")`` on their profiling context, which routes to the
context's attached tracer (the null tracer by default).

Determinism: span *structure* (names, nesting, order, event deltas) is
a pure function of the simulated execution, so it is identical across
serial and process-parallel runs; only wall-clock stamps differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:   # annotation-only: importing repro.uarch here would
    # close an import cycle (uarch.perfctx needs NULL_TRACER from us).
    from repro.uarch.events import PerfEvents


@dataclass
class Span:
    """One traced scope: a named phase with timing and event deltas.

    ``events`` is the PerfEvents delta accumulated while the span was
    open (None when the span ran without a profiling context).
    ``children`` are the spans opened and closed inside this one.
    """

    name: str
    category: str = ""
    start_wall: float = 0.0
    end_wall: float = 0.0
    events: Optional[PerfEvents] = None
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def wall_seconds(self) -> float:
        return max(0.0, self.end_wall - self.start_wall)

    @property
    def instructions(self) -> float:
        """Instructions retired while this span was open (0 if unprofiled)."""
        return self.events.instructions if self.events is not None else 0.0

    @property
    def self_instructions(self) -> float:
        """This span's instructions minus those of its children.

        Summing ``self_instructions`` over a whole tree therefore yields
        exactly the root span's instruction delta -- the attribution
        invariant the trace tests verify.
        """
        return self.instructions - sum(c.instructions for c in self.children)

    def set(self, key: str, value) -> None:
        """Attach an attribute (no-op on the null span)."""
        self.attrs[key] = value

    def walk(self):
        """Yield this span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """The first descendant (or self) with ``name``, or None."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    # -- context-manager protocol (the tracer enters/exits spans) ------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self.attrs.pop("__tracer__", None)
        if tracer is not None:
            tracer._exit(self)


class _NullSpan:
    """Shared do-nothing span scope: the disabled-tracing fast path."""

    __slots__ = ()

    name = ""
    category = ""
    attrs: dict = {}
    children: list = []
    events = None
    instructions = 0.0
    self_instructions = 0.0
    wall_seconds = 0.0

    def set(self, key: str, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: ``span()`` hands back one shared null scope."""

    enabled = False

    def span(self, name: str, ctx=None, category: str = "", **attrs):
        return NULL_SPAN


#: Shared no-op instance: the default tracer on every profiling context.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Records a tree of spans for one traced execution.

    Usage (engines go through ``ctx.span``, which calls this)::

        tracer = Tracer("Sort")
        with tracer.span("run", ctx=perf_ctx):
            with tracer.span("mr:map", ctx=perf_ctx) as sp:
                ...
                sp.set("records", n)
        root = tracer.finish()

    The first span opened becomes the root; spans opened while another
    is active become its children.  ``finish()`` returns the root and
    detaches it, leaving the tracer reusable.

    A profiling context simulates its recorded memory accesses in large
    batches; the tracer has it ``settle()`` where a span opens and where
    it closes, so that the span's delta carries the cache/TLB misses and
    memory bytes of exactly the accesses declared inside it.
    """

    enabled = True

    def __init__(self, name: str = "trace"):
        self.name = name
        self.root: Optional[Span] = None
        self._stack: list = []

    def span(self, name: str, ctx=None, category: str = "", **attrs) -> Span:
        span = Span(
            name=name,
            category=category,
            start_wall=time.perf_counter(),
            attrs=dict(attrs),
        )
        if ctx is not None and getattr(ctx, "profiling", False):
            ctx.settle()    # accesses recorded before now belong outside
            span.events = ctx.events.copy()   # entry snapshot; delta on exit
        span.attrs["__tracer__"] = self
        if self._stack:
            self._stack[-1][0].children.append(span)
        elif self.root is None:
            self.root = span
        else:
            # A second top-level span: wrap everything in a synthetic root.
            old_root = self.root
            self.root = Span(name=self.name, start_wall=old_root.start_wall,
                             children=[old_root, span])
        self._stack.append((span, ctx))
        return span

    def _exit(self, span: Span) -> None:
        while self._stack:
            top, ctx = self._stack.pop()
            top.end_wall = time.perf_counter()
            if top.events is not None and ctx is not None:
                ctx.settle()
                top.events = ctx.events.delta(top.events)
            if top is span:
                break
        if self.root is not None and not self._stack:
            self.root.end_wall = span.end_wall

    def finish(self) -> Optional[Span]:
        """Close any dangling spans and return (and detach) the root."""
        while self._stack:
            self._stack[-1][0].__exit__(None, None, None)
        root, self.root = self.root, None
        return root


def resolve_tracer(trace) -> NullTracer:
    """Normalize a ``trace`` argument: a tracer, True (new tracer), or
    None/False (the shared null tracer)."""
    if trace is None or trace is False:
        return NULL_TRACER
    if trace is True:
        return Tracer()
    return trace
