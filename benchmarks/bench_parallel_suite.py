"""Serial vs parallel vs warm-disk-cache suite execution.

The evaluation matrix (19 workloads x scales x stacks, Section 6) is
embarrassingly parallel and perfectly repeatable, so the harness offers
two accelerators: process fan-out (``Harness(jobs=N)``) and the
persistent result cache (the ``result`` kind of :mod:`repro.core.store`).  This bench runs
the same points three ways, checks the event counts are bit-identical,
and demonstrates the headline win: a warm-cache full-suite pass at
least 5x faster than the cold serial pass.
"""

import dataclasses
import time

from benchmarks.conftest import emit
from repro.core import registry
from repro.core.harness import Harness
from repro.core.report import render_table
from repro.core.runspec import RunSpec
from repro.core.store import Store

#: Subset for the serial-vs-parallel leg (spans batch MapReduce, NoSQL,
#: query, and service workloads); the cache legs run the full suite.
PARALLEL_SUBSET = ["Sort", "Grep", "Scan", "Select Query", "Nutch Server",
                   "PageRank"]


def _specs(names=None):
    return [RunSpec(workload=name)
            for name in names or registry.workload_names()]


def _events(points):
    return [dataclasses.asdict(p.report.events) for p in points]


def test_parallel_suite_and_warm_cache(benchmark, tmp_path):
    cache_root = str(tmp_path / "repro-cache")

    # Cold serial full suite, populating the disk cache as it goes.
    cold = Harness(cache=Store(cache_root))
    start = time.perf_counter()
    cold_points = cold.run_many(_specs())
    cold_seconds = time.perf_counter() - start

    # Parallel fan-out over a representative subset (no cache, so the
    # workers really execute), against the same points run serially.
    serial_subset = [p for p in cold_points
                     if p.workload in set(PARALLEL_SUBSET)]
    parallel = Harness(jobs=2)
    start = time.perf_counter()
    parallel_points = parallel.run_many(_specs(PARALLEL_SUBSET))
    parallel_seconds = time.perf_counter() - start
    by_name = {p.workload: p for p in serial_subset}
    for point in parallel_points:
        assert _events([point]) == _events([by_name[point.workload]]), (
            f"{point.workload}: parallel events differ from serial")
        assert point.result.metric_value == by_name[point.workload].result.metric_value

    # Warm full suite from the disk cache in a fresh harness.
    warm = Harness(cache=Store(cache_root))
    start = time.perf_counter()
    warm_points = benchmark.pedantic(warm.run_many, args=(_specs(),),
                                     iterations=1, rounds=1)
    warm_seconds = time.perf_counter() - start

    assert _events(warm_points) == _events(cold_points)
    assert warm.cache.hits == len(cold_points)

    emit(render_table(
        ["Configuration", "Points", "Seconds", "Speedup vs cold"],
        [
            ["cold serial suite", len(cold_points), f"{cold_seconds:.2f}", "1.0x"],
            [f"parallel jobs=2 ({len(PARALLEL_SUBSET)} workloads)",
             len(parallel_points), f"{parallel_seconds:.2f}", "-"],
            ["warm disk cache", len(warm_points), f"{warm_seconds:.2f}",
             f"{cold_seconds / max(warm_seconds, 1e-9):.0f}x"],
        ],
        title="Suite execution: serial vs parallel vs warm cache",
    ))

    # The acceptance bar: a warm-cache full-suite pass is >= 5x faster
    # than the cold serial pass.
    assert warm_seconds * 5 <= cold_seconds, (
        f"warm cache {warm_seconds:.2f}s vs cold {cold_seconds:.2f}s")


def test_null_tracer_overhead_within_noise():
    """Disabled tracing must cost nothing measurable.

    Every engine hot path now calls ``ctx.span(...)``; with tracing off
    that routes to the shared null tracer, which hands back one
    preallocated no-op scope.  Guard both layers: the per-call cost of
    the null path stays in fractions of a microsecond, and a traced
    characterization stays within noise of an untraced one (the span
    count per run is tiny compared to the simulated work).
    """
    from repro.core.harness import Harness
    from repro.core.runspec import RunSpec
    from repro.obs.trace import NULL_SPAN
    from repro.uarch.hierarchy import XEON_E5645
    from repro.uarch.perfctx import PerfContext

    ctx = PerfContext(XEON_E5645)
    assert ctx.span("bench:null") is NULL_SPAN

    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        with ctx.span("bench:null", category="bench"):
            pass
    per_call = (time.perf_counter() - start) / calls
    assert per_call < 5e-6, f"null span costs {per_call * 1e9:.0f} ns/call"

    def timed(trace):
        harness = Harness()   # fresh memo each leg: every run executes
        start = time.perf_counter()
        harness.run(RunSpec(workload="Grep", trace=trace))
        return time.perf_counter() - start

    untraced = min(timed(False) for _ in range(2))
    traced = timed(True)
    emit(render_table(
        ["Leg", "Value"],
        [
            ["null span per call", f"{per_call * 1e9:.0f} ns"],
            ["Grep untraced (best of 2)", f"{untraced:.2f} s"],
            ["Grep traced", f"{traced:.2f} s"],
        ],
        title="Tracing overhead: disabled path and traced run",
    ))
    # Generous noise bound: tracing records tens of spans per run, so a
    # traced run must stay in the same ballpark as an untraced one.
    assert traced <= untraced * 1.5 + 1.0, (
        f"traced {traced:.2f}s vs untraced {untraced:.2f}s")
