"""One input plane: a harness generates each distinct BDGS data set once.

The paper feeds 19 workloads from six data sets; ``inputs._artifact`` keys
every generated input by content, and the harness's dataset memo is asked
before the store or the generator.  Without a store the memo lasts for
the harness's life; with one it lasts for one prepare, and the store
serves every later reader.  Counted here, never timed.
"""

import numpy as np
import pytest

from repro.core import registry
from repro.core import store as stores
from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.core.store import Store
from repro.obs.metrics import METRICS
from repro.workloads import inputs


class _DatagenCounts:
    """What the ``datagen.*`` and ``store.*`` counters gained since
    construction."""

    def __init__(self):
        self._before = self._read()

    @staticmethod
    def _read() -> dict:
        return {name: entry["value"]
                for name, entry in METRICS.snapshot().items()
                if name.startswith(("datagen.", "store."))}

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
    return {name: harness.prepare(name, scale, seed=0) for name in names}


def test_the_19_workloads_read_11_distinct_datasets():
    counts = _DatagenCounts()
    harness = Harness(artifacts=False)
    names = registry.workload_names()
    assert len(names) == 19
    _prepare(harness, names)
    assert counts.generated == 11
    assert counts.memo_hits == 8
    assert len(harness._datasets) == 11
    # Preparing them again prepares every input afresh, from the memo.
    _prepare(harness, names)
    assert (counts.generated, counts.memo_hits) == (11, 8 + 19)


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
    harness.prepare("Grep", 1, seed=0)
    harness.prepare("WordCount", 2, seed=0)       # another volume
    harness.prepare("Sort", 1, seed=3)            # another seed
    # Same kind, scale and seed, another base size (CF 6000, Bayes 1500).
    harness.prepare("Collaborative Filtering", 1, seed=0)
    harness.prepare("Naive Bayes", 1, seed=0)
    assert counts.gained("datagen.text.generated") == 3
    assert counts.gained("datagen.reviews.generated") == 2
    assert counts.memo_hits == 0


def _dataset(prepared):
    """The data set a prepared input reads (Naive Bayes adds its labels)."""
    payload = prepared.payload
    return payload[0] if isinstance(payload, tuple) else payload


@pytest.mark.parametrize("name", ["WordCount", "BFS", "Select Query", "Read",
                                  "K-means", "Naive Bayes"])
def test_a_write_to_a_shared_dataset_raises_with_or_without_a_store(
        name, tmp_path):
    """In memory or memory-mapped, an input is read-only: a workload that
    writes in place fails the same way in both modes."""
    for mode in (False, Store(str(tmp_path / "artifacts"))):
        dataset = _dataset(Harness(artifacts=mode).prepare(name, 1, seed=0))
        arrays = list(stores.encode(dataset)[2].values())
        assert arrays
        for array in arrays:
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][...] = 0


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
    store = Store(str(tmp_path / "artifacts"))
    counts = _DatagenCounts()
    cold = _prepare(Harness(artifacts=store), ["Grep", "WordCount"])
    assert counts.gained("datagen.text.generated") == 1
    assert counts.gained("store.dataset.misses") == 1
    assert (store.misses, store.hits) == (1, 1)             # WordCount re-opens
    assert isinstance(cold["Grep"].payload.tokens, np.memmap)

    warm = _prepare(Harness(artifacts=store), ["WordCount", "Grep"])
    assert counts.gained("datagen.text.generated") == 1     # nothing new
    assert counts.gained("store.dataset.hits") == 3
    assert (store.misses, store.hits) == (1, 3)
    assert counts.memo_hits == 0
    for prepared in (cold["WordCount"], warm["Grep"], warm["WordCount"]):
        assert np.array_equal(prepared.payload.tokens,
                              cold["Grep"].payload.tokens)


def test_with_a_store_every_prepare_reopens_its_datasets(tmp_path):
    """Every memory-mapped array holds a mapping and a descriptor, so a
    long sweep keeps open only the point it is on: each prepare maps its
    data sets again, and a point that comes round again is re-opened
    from the store, not regenerated."""
    counts = _DatagenCounts()
    harness = Harness(artifacts=Store(str(tmp_path / "artifacts")))
    for seed in range(5):
        harness.prepare("Grep", 1, seed=seed)
        harness.prepare("WordCount", 1, seed=seed)
    harness.prepare("Grep", 1, seed=0)
    assert counts.gained("datagen.text.generated") == 5
    assert counts.gained("store.dataset.misses") == 5
    assert counts.gained("store.dataset.hits") == 6
    assert counts.memo_hits == 0

    # Without a store the memo is all that prevents regeneration.
    counts = _DatagenCounts()
    plain = Harness(artifacts=False)
    for seed in range(5):
        plain.prepare("Grep", 1, seed=seed)
    plain.prepare("WordCount", 1, seed=0)
    assert counts.gained("datagen.text.generated") == 5
    assert counts.memo_hits == 1
    assert counts.gained("store.dataset.hits") == 0


def test_a_traced_prepare_has_one_shape_however_the_dataset_was_served(
        tmp_path):
    """Serial runs share through the memo, ``jobs=N`` workers through the
    store: the ``artifact:*`` span is there either way, and never
    without a store."""
    harness = Harness(artifacts=Store(str(tmp_path / "artifacts")))
    for name, hit in (("Grep", False), ("Sort", True)):
        trace = harness.run(RunSpec(workload=name, scale=1, trace=True)).trace
        spans = [span for span in trace.walk() if span.category == "artifact"]
        assert [span.name for span in spans] == ["artifact:text"]
        assert spans[0].attrs["hit"] is hit
    plain = Harness(artifacts=False)
    for name in ("Grep", "Sort"):
        trace = plain.run(RunSpec(workload=name, scale=1, trace=True)).trace
        assert not [span for span in trace.walk()
                    if span.category == "artifact"]


def test_results_do_not_depend_on_what_was_prepared_before():
    alone = Harness(artifacts=False).run(
        RunSpec(workload="WordCount", scale=1))
    harness = Harness(artifacts=False)
    harness.run(RunSpec(workload="Grep", scale=1))
    shared = harness.run(RunSpec(workload="WordCount", scale=1))
    assert shared.result.metric_value == alone.result.metric_value
    assert shared.report.events == alone.report.events


class TestScope:
    def test_a_scope_without_a_memo_of_its_own_shares_within_itself(self):
        counts = _DatagenCounts()
        with stores.activated(None):
            one = inputs.text_input(1, 0)
            assert inputs.text_input(1, 0) is one
        with stores.activated(None):
            assert inputs.text_input(1, 0) is not one
        assert counts.gained("datagen.text.generated") == 2
        assert counts.memo_hits == 1

    def test_scopes_nest_and_restore_their_memo(self):
        outer, inner = {}, {}
        assert stores.current_memo() is None
        with stores.activated(None, memo=outer):
            assert stores.current_memo() is outer
            with stores.activated(None, memo=inner):
                assert stores.current_memo() is inner
            assert stores.current_memo() is outer
        assert stores.current_memo() is None

    def test_an_in_scope_disable_still_overrides_the_default_store(
            self, tmp_path, monkeypatch):
        """``current`` reads the same scope tuple."""
        monkeypatch.setenv(stores.ENV_CACHE_DIR, str(tmp_path / "root"))
        assert stores.current() is stores.default_store()
        with stores.activated(None, memo={}):
            assert stores.current() is None
        pinned = Store(str(tmp_path / "pinned"))
        with stores.activated(pinned, memo={}):
            assert stores.current() is pinned
