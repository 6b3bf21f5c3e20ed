"""Artifacts must be invisible in results: bit-identical everywhere.

The shared input plane changes *where* prepared inputs live (memory vs
memory-mapped ``.npy`` files) and *who* generates them (one process,
machine-wide), but must never change a single profiled number.  One
workload per data source -- text (WordCount), graph (BFS), table
(Select Query) -- is compared across every execution mode.
"""

import dataclasses

import pytest

from repro.core.artifacts import ArtifactStore
from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.obs.metrics import METRICS

#: One workload per BDGS data source.
WORKLOADS = ["WordCount", "BFS", "Select Query"]


def _specs(names):
    return [RunSpec(workload=name) for name in names]


def _fingerprint(outcome):
    return (outcome.result.metric_value,
            dataclasses.asdict(outcome.report.events))


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(root=str(tmp_path / "artifacts"))


@pytest.mark.parametrize("name", WORKLOADS)
def test_in_memory_vs_mmap_identical(name, store):
    plain = Harness(artifacts=False).characterize(name, scale=1)
    cold = Harness(artifacts=store).characterize(name, scale=1)
    warm = Harness(artifacts=store).characterize(name, scale=1)
    assert _fingerprint(cold) == _fingerprint(plain)
    assert _fingerprint(warm) == _fingerprint(plain)
    assert store.hits >= 1  # the warm harness really read the artifact


def test_serial_vs_parallel_identical(store):
    serial = Harness(artifacts=False)
    parallel = Harness(artifacts=store, jobs=2)
    expected = [serial.characterize(name, scale=1) for name in WORKLOADS]
    observed = parallel.run_many(_specs(WORKLOADS))
    for a, b in zip(expected, observed):
        assert _fingerprint(a) == _fingerprint(b)


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


def test_store_round_trip_identical(store):
    """Same store, fresh harness and memo: the mmap'd copy reproduces
    the generating run exactly."""
    first = Harness(artifacts=store)
    second = Harness(artifacts=store)
    for name in WORKLOADS:
        a = first.characterize(name, scale=1)
        b = second.characterize(name, scale=1)
        assert _fingerprint(a) == _fingerprint(b)


def test_prepared_memo_is_bounded_with_store(store):
    harness = Harness(artifacts=store)
    for name in WORKLOADS + ["K-means", "PageRank", "Grep"]:
        harness.characterize(name, scale=1)
    assert len(harness._inputs) <= Harness.INPUT_CACHE_SIZE


def test_prepared_memo_unbounded_without_store():
    harness = Harness(artifacts=False)
    for name in WORKLOADS + ["K-means", "PageRank", "Grep"]:
        harness.characterize(name, scale=1)
    assert len(harness._inputs) == 6


def test_artifact_spans_recorded(store):
    outcome = Harness(artifacts=store).characterize("WordCount", scale=1,
                                                    trace=True)
    spans = [span for span in outcome.trace.walk()
             if span.category == "artifact"]
    assert spans and spans[0].name == "artifact:text"
    assert spans[0].attrs["hit"] is False
    warm = Harness(artifacts=store, cache=False).characterize(
        "WordCount", scale=1, trace=True)
    hits = [span for span in warm.trace.walk()
            if span.category == "artifact"]
    assert hits and hits[0].attrs["hit"] is True
