"""The shared input plane: a warm store regenerates nothing, the
prepared memo stays bounded, and artifact reads show in the trace.

That memory-mapped inputs change no profiled number is
``tests/integration/test_determinism.py``.
"""

import pytest

from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.core.store import Store
from repro.obs.metrics import METRICS

#: One workload per BDGS data source.
WORKLOADS = ["WordCount", "BFS", "Select Query"]


def _specs(names):
    return [RunSpec(workload=name) for name in names]


@pytest.fixture
def store(tmp_path):
    return Store(str(tmp_path / "store"))


def test_warm_suite_regenerates_nothing(store):
    """ISSUE acceptance: a warm run hits artifacts for every input."""
    names = ["WordCount", "BFS", "Select Query", "K-means"]
    Harness(artifacts=store).run_many(_specs(names))

    hits_before = METRICS.counter("datagen.artifact_hit").value
    generated_before = {
        kind: METRICS.counter(f"datagen.{kind}.generated").value
        for kind in ("text", "social_graph", "ecommerce", "kmeans_points")
    }
    warm = Harness(artifacts=store)
    warm.run_many(_specs(names))
    # Every input came from the store ...
    assert METRICS.counter("datagen.artifact_hit").value >= hits_before + 4
    # ... and zero generator calls happened.
    for kind, before in generated_before.items():
        assert METRICS.counter(f"datagen.{kind}.generated").value == before


def test_prepared_memo_is_bounded_with_store(store):
    harness = Harness(artifacts=store)
    for name in WORKLOADS + ["K-means", "PageRank", "Grep"]:
        harness.run(RunSpec(workload=name, scale=1))
    assert len(harness._inputs) <= Harness.INPUT_CACHE_SIZE


def test_prepared_memo_unbounded_without_store():
    harness = Harness(artifacts=False)
    for name in WORKLOADS + ["K-means", "PageRank", "Grep"]:
        harness.run(RunSpec(workload=name, scale=1))
    assert len(harness._inputs) == 6


def test_artifact_spans_recorded(store):
    spec = RunSpec(workload="WordCount", scale=1, trace=True)
    outcome = Harness(artifacts=store).run(spec)
    spans = [span for span in outcome.trace.walk()
             if span.category == "artifact"]
    assert spans and spans[0].name == "artifact:text"
    assert spans[0].attrs["hit"] is False
    warm = Harness(artifacts=store, cache=False).run(spec)
    hits = [span for span in warm.trace.walk()
            if span.category == "artifact"]
    assert hits and hits[0].attrs["hit"] is True
