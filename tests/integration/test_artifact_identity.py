"""The shared input plane: a warm store regenerates nothing, every run
re-opens its data sets from the store, and artifact reads show in the
trace -- in the same span tree serially and fanned out.

That memory-mapped inputs change no profiled number is
``tests/integration/test_determinism.py``.
"""

import pytest

from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.core.store import Store
from repro.obs.metrics import METRICS
from repro.uarch.hierarchy import XEON_E5310, XEON_E5645

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

    hits_before = METRICS.counter("store.dataset.hits").value
    generated_before = {
        kind: METRICS.counter(f"datagen.{kind}.generated").value
        for kind in ("text", "social_graph", "ecommerce", "kmeans_points")
    }
    warm = Harness(artifacts=store)
    warm.run_many(_specs(names))
    # Every input came from the store ...
    assert METRICS.counter("store.dataset.hits").value >= hits_before + 4
    # ... and zero generator calls happened.
    for kind, before in generated_before.items():
        assert METRICS.counter(f"datagen.{kind}.generated").value == before


def _rerun_on_the_e5310(harness):
    """Run ``WORKLOADS`` on both machines; the E5310 pass re-prepares
    every input.  Returns what the ``datagen.*`` and ``store.dataset.*``
    counters gained in that pass."""
    names = ("datagen.text.generated", "datagen.social_graph.generated",
             "datagen.ecommerce.generated", "datagen.memo_hit",
             "store.dataset.hits", "store.dataset.misses")
    harness.run_many([RunSpec(workload=name) for name in WORKLOADS])
    before = {name: METRICS.counter(name).value for name in names}
    harness.run_many([RunSpec(workload=name, machine=XEON_E5310)
                      for name in WORKLOADS])
    return {name: METRICS.counter(name).value - before[name]
            for name in names}


def test_with_a_store_each_run_reopens_its_datasets(store):
    """The store is the only tier kept across runs: a point that comes
    round again maps its data sets anew and generates nothing."""
    gained = _rerun_on_the_e5310(Harness(artifacts=store))
    assert gained == {
        "datagen.text.generated": 0, "datagen.social_graph.generated": 0,
        "datagen.ecommerce.generated": 0, "datagen.memo_hit": 0,
        "store.dataset.hits": len(WORKLOADS), "store.dataset.misses": 0}


def test_without_a_store_the_harness_keeps_every_dataset():
    gained = _rerun_on_the_e5310(Harness(artifacts=False))
    assert gained == {
        "datagen.text.generated": 0, "datagen.social_graph.generated": 0,
        "datagen.ecommerce.generated": 0,
        "datagen.memo_hit": len(WORKLOADS),
        "store.dataset.hits": 0, "store.dataset.misses": 0}


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


def _span_tree(outcome):
    """Every span but its wall-clock stamps, in walk order."""
    return [(span.name, span.category, span.events, span.attrs)
            for span in outcome.trace.walk()]


def test_a_workload_on_two_machines_has_one_span_tree_serially_and_fanned_out(
        store):
    """Each run prepares its own input, so each traced run opens its
    ``artifact:*`` span -- also the second run of a workload in one
    serial harness, which a ``jobs=2`` pool runs in another process."""
    Harness(artifacts=store).prepare("Grep", 1)     # both sides map it
    specs = [RunSpec(workload="Grep", machine=machine, trace=True)
             for machine in (XEON_E5645, XEON_E5310)]
    serial = Harness(artifacts=store).run_many(specs)
    fanned = Harness(artifacts=store).run_many(specs, jobs=2)
    for outcome in serial:
        assert [span.attrs["hit"] for span in outcome.trace.walk()
                if span.category == "artifact"] == [True]
    assert [_span_tree(out) for out in serial] == [
        _span_tree(out) for out in fanned]
