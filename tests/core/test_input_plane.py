"""One input plane: a harness generates each distinct BDGS data set once.

The paper feeds 19 workloads from six data sets; ``inputs._artifact`` keys
every generated input by content, and the harness's dataset memo is asked
before the artifact store or the generator.  Counted here, never timed.
"""

import numpy as np
import pytest

from repro.core import artifacts, registry
from repro.core.artifacts import ArtifactStore
from repro.core.harness import Harness
from repro.obs.metrics import METRICS
from repro.workloads import inputs


class _DatagenCounts:
    """What the ``datagen.*`` counters gained since construction."""

    def __init__(self):
        self._before = self._read()

    @staticmethod
    def _read() -> dict:
        return {name: entry["value"]
                for name, entry in METRICS.snapshot().items()
                if name.startswith("datagen.")}

    def gained(self, name: str) -> int:
        return int(self._read().get(name, 0) - self._before.get(name, 0))

    @property
    def generated(self) -> int:
        return sum(self.gained(name) for name in self._read()
                   if name.endswith(".generated"))

    @property
    def memo_hits(self) -> int:
        return self.gained("datagen.memo_hit")


def _prepare(harness, names, scale=1):
    return {name: harness._prepared(name, scale, seed=0) for name in names}


def test_the_19_workloads_read_11_distinct_datasets():
    counts = _DatagenCounts()
    harness = Harness(artifacts=False)
    names = registry.workload_names()
    assert len(names) == 19
    _prepare(harness, names)
    assert counts.generated == 11
    assert counts.memo_hits == 8
    assert len(harness._datasets) == 11
    # Preparing them again is answered by the prepared-input memo.
    _prepare(harness, names)
    assert (counts.generated, counts.memo_hits) == (11, 8)


def test_workloads_on_one_dataset_share_one_object():
    counts = _DatagenCounts()
    prepared = _prepare(Harness(artifacts=False),
                        ["Grep", "WordCount", "Sort", "BFS"])
    assert prepared["Grep"].payload is prepared["WordCount"].payload
    assert prepared["Sort"].payload is prepared["WordCount"].payload
    assert counts.gained("datagen.text.generated") == 1
    assert counts.memo_hits == 2
    assert counts.gained("datagen.social_graph.generated") == 1


def test_the_volume_sweep_generates_its_corpus_once():
    """The benchmark's ``volume_x8`` workloads, at its scale: CI runs
    this next to the digest gate, which cannot see work done twice."""
    counts = _DatagenCounts()
    _prepare(Harness(artifacts=False),
             ["Grep", "WordCount", "K-means", "BFS"], scale=8)
    assert counts.gained("datagen.text.generated") == 1
    assert counts.memo_hits == 1
    assert counts.generated == 3


def test_the_key_is_the_content_not_the_workload():
    counts = _DatagenCounts()
    harness = Harness(artifacts=False)
    harness._prepared("Grep", 1, seed=0)
    harness._prepared("WordCount", 2, seed=0)       # another volume
    harness._prepared("Sort", 1, seed=3)            # another seed
    # Same kind, scale and seed, another base size (CF 6000, Bayes 1500).
    harness._prepared("Collaborative Filtering", 1, seed=0)
    harness._prepared("Naive Bayes", 1, seed=0)
    assert counts.gained("datagen.text.generated") == 3
    assert counts.gained("datagen.reviews.generated") == 2
    assert counts.memo_hits == 0


def _first_array(dataset) -> np.ndarray:
    return next(iter(artifacts.encode(dataset)[2].values()))


@pytest.mark.parametrize("name", ["WordCount", "BFS", "Select Query", "Read",
                                  "K-means", "Naive Bayes"])
def test_a_write_to_a_shared_dataset_raises_with_or_without_a_store(
        name, tmp_path):
    """In memory or memory-mapped, an input is read-only: a workload that
    writes in place fails the same way in both modes."""
    for mode in (False, ArtifactStore(root=str(tmp_path / "artifacts"))):
        harness = Harness(artifacts=mode)
        harness._prepared(name, 1, seed=0)
        assert harness._datasets
        for dataset in harness._datasets.values():
            for array in artifacts.encode(dataset)[2].values():
                assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                _first_array(dataset)[...] = 0


def test_two_harnesses_share_nothing():
    counts = _DatagenCounts()
    first = _prepare(Harness(artifacts=False), ["Grep"])
    second = _prepare(Harness(artifacts=False), ["WordCount"])
    assert first["Grep"].payload is not second["WordCount"].payload
    assert np.array_equal(first["Grep"].payload.tokens,
                          second["WordCount"].payload.tokens)
    assert counts.gained("datagen.text.generated") == 2
    assert counts.memo_hits == 0


def test_bare_prepare_generates_every_time():
    counts = _DatagenCounts()
    workload = registry.create("Grep")
    one = workload.prepare(1, seed=0)
    two = workload.prepare(1, seed=0)
    assert one.payload is not two.payload
    assert one.payload.tokens.flags.writeable
    assert counts.gained("datagen.text.generated") == 2
    assert counts.memo_hits == 0


def test_a_harness_with_a_store_spills_once_and_reopens(tmp_path):
    store = ArtifactStore(root=str(tmp_path / "artifacts"))
    counts = _DatagenCounts()
    cold = _prepare(Harness(artifacts=store), ["Grep", "WordCount"])
    assert counts.gained("datagen.text.generated") == 1
    assert counts.gained("datagen.artifact_miss") == 1
    assert (store.misses, store.hits) == (1, 0)
    assert isinstance(cold["Grep"].payload.tokens, np.memmap)
    assert cold["Grep"].payload is cold["WordCount"].payload

    warm = _prepare(Harness(artifacts=store), ["WordCount", "Grep"])
    assert counts.gained("datagen.text.generated") == 1     # nothing new
    assert counts.gained("datagen.artifact_hit") == 1
    assert (store.misses, store.hits) == (1, 1)
    assert counts.memo_hits == 2                            # one per harness
    assert np.array_equal(warm["Grep"].payload.tokens,
                          cold["Grep"].payload.tokens)


def test_with_a_store_the_datasets_are_evicted_with_the_inputs(tmp_path):
    """Every memory-mapped array holds a mapping and a descriptor, so a
    long sweep must not keep every point it passed open."""
    harness = Harness(artifacts=ArtifactStore(root=str(tmp_path / "artifacts")))
    bound = Harness.INPUT_CACHE_SIZE
    for seed in range(bound + 3):
        harness._prepared("Grep", 1, seed=seed)
        harness._prepared("WordCount", 1, seed=seed)
        assert len(harness._inputs) <= bound
        points = {(scale, seed) for _, scale, seed in harness._inputs}
        assert {key[1:3] for key in harness._datasets} == points
        assert len(harness._datasets) <= bound
    # An evicted point is re-opened from the store, not regenerated.
    counts = _DatagenCounts()
    assert ("text", 1, 0) not in harness._datasets
    harness._prepared("Grep", 1, seed=0)
    assert ("text", 1, 0) in harness._datasets
    assert counts.gained("datagen.text.generated") == 0
    assert counts.gained("datagen.artifact_hit") == 1

    # Without a store the memo is all that prevents regeneration.
    plain = Harness(artifacts=False)
    for seed in range(bound + 1):
        plain._prepared("Grep", 1, seed=seed)
    assert len(plain._datasets) == bound + 1


def test_a_traced_prepare_has_one_shape_however_the_dataset_was_served(
        tmp_path):
    """Serial runs share through the memo, ``jobs=N`` workers through the
    store: the ``artifact:*`` span is there either way, and never
    without a store."""
    harness = Harness(artifacts=ArtifactStore(root=str(tmp_path / "artifacts")))
    for name, hit in (("Grep", False), ("Sort", True)):
        trace = harness.characterize(name, scale=1, trace=True).trace
        spans = [span for span in trace.walk() if span.category == "artifact"]
        assert [span.name for span in spans] == ["artifact:text"]
        assert spans[0].attrs["hit"] is hit
    plain = Harness(artifacts=False)
    for name in ("Grep", "Sort"):
        trace = plain.characterize(name, scale=1, trace=True).trace
        assert not [span for span in trace.walk()
                    if span.category == "artifact"]


def test_results_do_not_depend_on_what_was_prepared_before():
    alone = Harness(artifacts=False).characterize("WordCount", scale=1)
    harness = Harness(artifacts=False)
    harness.characterize("Grep", scale=1)
    shared = harness.characterize("WordCount", scale=1)
    assert shared.result.metric_value == alone.result.metric_value
    assert shared.report.events == alone.report.events


class TestScope:
    def test_a_scope_without_a_memo_of_its_own_shares_within_itself(self):
        counts = _DatagenCounts()
        with artifacts.activated(None):
            one = inputs.text_input(1, 0)
            assert inputs.text_input(1, 0) is one
        with artifacts.activated(None):
            assert inputs.text_input(1, 0) is not one
        assert counts.gained("datagen.text.generated") == 2
        assert counts.memo_hits == 1

    def test_scopes_nest_and_restore_their_memo(self):
        outer, inner = {}, {}
        assert artifacts.current_memo() is None
        with artifacts.activated(None, memo=outer):
            assert artifacts.current_memo() is outer
            with artifacts.activated(None, memo=inner):
                assert artifacts.current_memo() is inner
            assert artifacts.current_memo() is outer
        assert artifacts.current_memo() is None

    def test_an_in_scope_disable_still_overrides_the_default_store(
            self, tmp_path, monkeypatch):
        """``current_or_default_store`` reads the same scope tuple."""
        monkeypatch.setenv(artifacts.ENV_ARTIFACT_DIR, str(tmp_path / "root"))
        assert artifacts.current_or_default_store() is not None
        with artifacts.activated(None, memo={}):
            assert artifacts.current_or_default_store() is None
            assert artifacts.current_store() is None
        store = ArtifactStore(root=str(tmp_path / "pinned"))
        with artifacts.activated(store, memo={}):
            assert artifacts.current_or_default_store() is store
