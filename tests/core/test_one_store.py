"""The store: codecs, every invariant once over the three kinds, keying,
GC, resolution and the harness wiring.

(Not ``test_store.py``: ``tests/nosql/test_store.py`` owns that module
name.)
"""

import dataclasses
import logging
import os
import shutil
import time

import numpy as np
import pytest

from repro.core import registry
from repro.core import store as stores
from repro.core.harness import Harness
from repro.core.runspec import RunSpec
from repro.core.store import KINDS, Store, decode, encode, fingerprint, resolve
from repro.datagen.graph import preferential_attachment
from repro.datagen.seeds import (
    amazon_movie_reviews,
    ecommerce_transactions,
    profsearch_resumes,
    wikipedia_entries,
)
from repro.datagen.table import ECommerceData, ResumeSet, ReviewSet
from repro.datagen.text import TextCorpus
from repro.obs.metrics import METRICS
from repro.serving.load import LoadProfile, generate_stream


def _sample(kind: str):
    """One object of what each kind holds: a pickled result, an
    array-coded data set, an array-coded serving stream."""
    if kind == "result":
        return {"metric": 42.0, "rows": list(range(100))}
    if kind == "dataset":
        return wikipedia_entries(num_docs=30)
    return generate_stream(LoadProfile.parse("constant:rps=200:duration=2"),
                           (("read", 0.6), ("write", 0.4)), seed=1,
                           store=False)


def _same(a, b) -> bool:
    try:
        name, meta, arrays = encode(a)
    except TypeError:
        return a == b
    other = encode(b)
    return ((name, meta, sorted(arrays)) == (other[0], other[1],
                                             sorted(other[2]))
            and all(np.array_equal(arrays[k], other[2][k]) for k in arrays))


def _counter(kind: str, outcome: str) -> float:
    return METRICS.counter(f"store.{kind}.{outcome}").value


@pytest.fixture
def store(tmp_path):
    return Store(str(tmp_path / "store"))


each_kind = pytest.mark.parametrize("kind", sorted(KINDS))


def _assert_corpus_equal(a: TextCorpus, b: TextCorpus) -> None:
    assert a.vocab_size == b.vocab_size
    np.testing.assert_array_equal(np.asarray(a.tokens), np.asarray(b.tokens))
    np.testing.assert_array_equal(np.asarray(a.doc_offsets),
                                  np.asarray(b.doc_offsets))


class TestCodecs:
    """Every prepared data object survives to_arrays -> from_arrays."""

    def test_text_corpus_round_trip(self):
        corpus = wikipedia_entries(num_docs=40)
        name, meta, arrays = encode(corpus)
        assert name == "TextCorpus"
        _assert_corpus_equal(decode(name, meta, arrays), corpus)

    def test_graph_round_trip(self):
        graph = preferential_attachment(
            200, 4, np.random.default_rng(0), directed=False)
        name, meta, arrays = encode(graph)
        assert name == "Graph"
        back = decode(name, meta, arrays)
        assert back.num_nodes == graph.num_nodes
        assert back.directed == graph.directed
        np.testing.assert_array_equal(back.edges, graph.edges)

    def test_table_round_trip(self):
        table = ecommerce_transactions(num_orders=100).orders
        name, meta, arrays = encode(table)
        assert name == "Table"
        back = decode(name, meta, arrays)
        assert back.name == table.name
        assert back.column_names == table.column_names
        for column in table.column_names:
            np.testing.assert_array_equal(back.column(column),
                                          table.column(column))

    def test_ecommerce_round_trip(self):
        data = ecommerce_transactions(num_orders=100)
        back = decode(*encode(data))
        assert isinstance(back, ECommerceData)
        np.testing.assert_array_equal(back.orders.column("ORDER_ID"),
                                      data.orders.column("ORDER_ID"))
        np.testing.assert_array_equal(back.items.column("GOODS_AMOUNT"),
                                      data.items.column("GOODS_AMOUNT"))

    def test_review_set_round_trip(self):
        reviews = amazon_movie_reviews(num_reviews=60)
        back = decode(*encode(reviews))
        assert isinstance(back, ReviewSet)
        assert back.num_users == reviews.num_users
        assert back.num_movies == reviews.num_movies
        np.testing.assert_array_equal(back.scores, reviews.scores)
        _assert_corpus_equal(back.corpus, reviews.corpus)

    def test_resume_set_round_trip(self):
        resumes = profsearch_resumes(num_resumes=80)
        back = decode(*encode(resumes))
        assert isinstance(back, ResumeSet)
        np.testing.assert_array_equal(back.value_sizes, resumes.value_sizes)
        np.testing.assert_array_equal(back.publication_counts,
                                      resumes.publication_counts)

    def test_ndarray_round_trip(self):
        array = np.random.default_rng(1).normal(size=(16, 4))
        name, meta, arrays = encode(array)
        assert name == "ndarray"
        np.testing.assert_array_equal(decode(name, meta, arrays), array)

    def test_objects_without_an_array_codec_are_pickled(self, store):
        for payload in ({"not": "arrays"}, np.array([{"a": 1}], dtype=object)):
            with pytest.raises(TypeError):
                encode(payload)
            store.put("result", ("k",), payload)
            assert os.path.isfile(
                os.path.join(store.path("result", ("k",)), "value.pkl"))
            assert repr(store.get("result", ("k",))) == repr(payload)
            store.clear()


class TestEntries:
    @each_kind
    def test_miss_then_hit_round_trip(self, store, kind):
        key = (kind, 1, 0)
        assert store.get(kind, key) is None
        assert (store.misses, store.hits) == (1, 0)
        value = _sample(kind)
        assert _same(store.put(kind, key, value), value)
        assert _same(store.get(kind, key), value)
        assert (store.misses, store.hits) == (1, 1)

    @pytest.mark.parametrize("kind", ["dataset", "stream"])
    def test_arrays_come_back_as_readonly_memmaps(self, store, kind):
        stored = store.put(kind, ("k",), _sample(kind))
        for loaded in (stored, store.get(kind, ("k",))):
            array = next(iter(encode(loaded)[2].values()))
            assert isinstance(array, np.memmap)
            with pytest.raises((ValueError, RuntimeError)):
                array[0] = 99

    @each_kind
    def test_keys_and_kinds_do_not_collide(self, store, kind):
        store.put(kind, ("k", 1, 0), np.arange(4, dtype=np.int64))
        store.put(kind, ("k", 1, 1), np.arange(8, dtype=np.int64))
        np.testing.assert_array_equal(store.get(kind, ("k", 1, 0)),
                                      np.arange(4))
        np.testing.assert_array_equal(store.get(kind, ("k", 1, 1)),
                                      np.arange(8))
        for other in set(KINDS) - {kind}:
            assert store.get(other, ("k", 1, 0)) is None

    @each_kind
    @pytest.mark.parametrize("damage", [
        "garbage payload", "truncated payload", "truncated meta",
        "mangled meta", "missing meta"])
    def test_a_corrupt_entry_is_a_logged_miss_and_removed(
            self, store, kind, damage, caplog):
        """A killed writer or a disk error must never poison a run."""
        key = ("k",)
        store.put(kind, key, _sample(kind))
        directory = store.path(kind, key)
        meta = os.path.join(directory, "meta.json")
        payloads = [os.path.join(directory, name)
                    for name in os.listdir(directory) if name != "meta.json"]
        if damage == "garbage payload":
            for path in payloads:
                with open(path, "wb") as handle:
                    handle.write(b"definitely not an npy or a pickle")
        elif damage == "truncated payload":
            for path in payloads:
                os.truncate(path, os.path.getsize(path) // 2)
        elif damage == "truncated meta":
            os.truncate(meta, 12)
        elif damage == "mangled meta":
            with open(meta, "w") as handle:
                handle.write('{"codec": "no-such-codec", "arrays": []}')
        else:
            os.remove(meta)
        corrupt = _counter(kind, "corrupt_entries")
        with caplog.at_level(logging.WARNING, logger="repro.core.store"):
            assert store.get(kind, key) is None
        assert any("discarding corrupt" in record.message
                   for record in caplog.records)
        assert _counter(kind, "corrupt_entries") == corrupt + 1
        assert store.misses == 1
        assert not os.path.exists(directory)
        # The slot is reusable after the discard.
        store.put(kind, key, np.arange(3, dtype=np.int64))
        np.testing.assert_array_equal(store.get(kind, key), np.arange(3))

    @each_kind
    def test_an_unwritable_root_passes_the_object_through(self, tmp_path,
                                                          kind):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        store = Store(str(blocked))
        value = _sample(kind)
        failures = _counter(kind, "put_failures")
        assert store.put(kind, ("k",), value) is value
        assert _counter(kind, "put_failures") == failures + 1
        assert store.get(kind, ("k",)) is None

    @each_kind
    def test_a_stale_fingerprint_reads_as_a_miss(self, store, kind,
                                                 monkeypatch):
        live = fingerprint(kind)
        monkeypatch.setitem(stores._FINGERPRINTS, kind, "aaaa")
        store.put(kind, ("old",), np.arange(4, dtype=np.int64))
        store.put(kind, ("both",), np.arange(4, dtype=np.int64))
        monkeypatch.setitem(stores._FINGERPRINTS, kind, live)
        assert store.get(kind, ("both",)) is None
        store.put(kind, ("new",), np.arange(4, dtype=np.int64))
        stale = {entry.key: entry.stale for entry in store.entries()}
        assert stale == {repr(("old",)): True, repr(("both",)): True,
                         repr(("new",)): False}

    def test_clear_removes_every_kind(self, store):
        for kind in KINDS:
            store.put(kind, ("k",), np.arange(4, dtype=np.int64))
        assert len(store.entries()) == len(KINDS)
        store.clear()
        assert store.entries() == []
        assert all(store.get(kind, ("k",)) is None for kind in KINDS)


class TestGc:
    ENTRY_WORDS = 25_000  # int64s: 200 000 bytes of payload per entry

    def _fill(self, store, kinds):
        """One entry per kind listed, oldest first."""
        for index, kind in enumerate(kinds):
            store.put(kind, ("k", index),
                      np.zeros(self.ENTRY_WORDS, dtype=np.int64))
            meta = os.path.join(store.path(kind, ("k", index)), "meta.json")
            os.utime(meta, (1_000_000 + index, 1_000_000 + index))

    def test_gc_evicts_lru_first_over_all_kinds(self, store):
        kinds = ["result", "dataset", "stream", "dataset"]
        self._fill(store, kinds)
        assert store.get("result", ("k", 0)) is not None  # now the newest
        removed = store.gc(cap_bytes=450_000)
        assert [(entry.kind, entry.key) for entry in removed] == [
            ("dataset", repr(("k", 1))), ("stream", repr(("k", 2)))]
        assert store.get("result", ("k", 0)) is not None
        assert store.total_bytes() <= 450_000

    def test_gc_evicts_stale_fingerprints_first(self, store, monkeypatch):
        self._fill(store, ["dataset"])
        live = fingerprint("stream")
        monkeypatch.setitem(stores._FINGERPRINTS, "stream", "aaaa")
        store.put("stream", ("old",),
                  np.zeros(self.ENTRY_WORDS, dtype=np.int64))
        monkeypatch.setitem(stores._FINGERPRINTS, "stream", live)
        removed = store.gc(cap_bytes=250_000)
        assert [(entry.kind, entry.fingerprint) for entry in removed] == [
            ("stream", "aaaa")]
        assert store.get("dataset", ("k", 0)) is not None

    def test_put_gcs_over_the_cap(self, store, monkeypatch):
        monkeypatch.setattr(stores, "CAP_BYTES", 300_000)
        self._fill(store, ["result", "dataset", "stream", "dataset"])
        assert store.total_bytes() <= 300_000
        assert store.get("dataset", ("k", 3)) is not None


class TestFingerprints:
    @each_kind
    def test_fingerprint_is_stable(self, kind):
        assert fingerprint(kind) == fingerprint(kind, refresh=True)

    @pytest.mark.parametrize("edited, changed", [
        ("keyed.py", {"result", "dataset"}),
        ("datagen/models.py", {"result", "dataset"}),
        ("workloads/inputs.py", {"result", "dataset"}),
        ("serving/load.py", {"result", "stream"}),
        ("cluster/sim.py", {"result"}),
        ("core/store.py", {"result", "dataset", "stream"}),
    ])
    def test_an_edit_invalidates_exactly_the_kinds_it_can_change(
            self, tmp_path, monkeypatch, edited, changed):
        import repro

        package = os.path.dirname(repro.__file__)
        copy = tmp_path / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))
        monkeypatch.setattr(stores, "_FINGERPRINTS", {})
        before = {kind: fingerprint(kind) for kind in KINDS}
        with open(copy / edited, "a") as handle:
            handle.write("# edited\n")
        after = {kind: fingerprint(kind, refresh=True) for kind in KINDS}
        assert {kind for kind in KINDS if after[kind] != before[kind]} \
            == changed


class TestResolution:
    def test_none_and_false_mean_no_store(self):
        assert resolve(None) is None
        assert resolve(False) is None

    def test_true_is_the_default_store_of_the_root(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv(stores.ENV_CACHE_DIR, str(tmp_path / "a"))
        default = resolve(True)
        assert default.root == str(tmp_path / "a")
        assert resolve(True) is default is stores.default_store()
        monkeypatch.setenv(stores.ENV_CACHE_DIR, str(tmp_path / "b"))
        assert stores.default_store().root == str(tmp_path / "b")

    def test_a_path_roots_a_store_and_an_instance_passes(self, tmp_path,
                                                         store):
        built = resolve(str(tmp_path / "elsewhere"))
        assert isinstance(built, Store)
        assert built.root == str(tmp_path / "elsewhere")
        assert resolve(store) is store

    def test_current_is_the_scope_store_else_the_default(self, store):
        assert stores.current() is stores.default_store()
        with stores.activated(store):
            assert stores.current() is store
            with stores.activated(None):
                assert stores.current() is None
            assert stores.current() is store
        assert stores.current() is stores.default_store()

    def test_bare_prepare_never_touches_the_store(self, tmp_path,
                                                  monkeypatch):
        from repro.core import registry

        monkeypatch.setenv(stores.ENV_CACHE_DIR, str(tmp_path / "fresh"))
        registry.create("Sort").prepare(1, seed=0)
        assert not os.path.exists(str(tmp_path / "fresh"))


class TestHarnessWiring:
    def test_results_survive_across_harnesses(self, tmp_path):
        root = str(tmp_path / "cache")
        first = Harness(cache=Store(root))
        original = first.run(RunSpec(workload="Grep"))
        assert [entry.kind for entry in first.cache.entries()] == ["result"]

        warm = Harness(cache=Store(root))
        restored = warm.run(RunSpec(workload="Grep"))
        assert warm.cache.hits == 1
        assert dataclasses.asdict(restored.report.events) == \
            dataclasses.asdict(original.report.events)
        assert restored.result.metric_value == original.result.metric_value
        # And the memo serves the second lookup without touching disk.
        assert warm.run(RunSpec(workload="Grep")) is restored
        assert warm.cache.hits == 1

    def test_harness_survives_a_corrupt_result(self, store):
        first = Harness(cache=store).run(RunSpec(workload="Grep", scale=1))
        [entry] = store.entries()
        with open(os.path.join(entry.path, "value.pkl"), "wb") as handle:
            handle.write(b"\x80corrupted")
        again = Harness(cache=store).run(RunSpec(workload="Grep", scale=1))
        assert again.result.metric_value == first.result.metric_value
        assert len(store.entries()) == 1  # the re-run wrote it back

    def test_an_unwritable_result_cache_does_not_fail_the_run(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        outcome = Harness(cache=Store(str(blocked)),
                          artifacts=False).run(RunSpec(workload="Grep"))
        assert outcome.result.metric_value > 0

    def test_seed_machine_and_cluster_are_in_the_key(self, tmp_path):
        from repro.cluster.node import ClusterSpec
        from repro.uarch.hierarchy import XEON_E5310, XEON_E5645

        base = Harness(cache=Store(str(tmp_path)))

        def key(spec, harness=base):
            return spec.resolved(harness).cache_key()

        keys = {
            key(RunSpec(workload="Grep", machine=XEON_E5645)),
            key(RunSpec(workload="Grep", machine=XEON_E5310)),
            key(RunSpec(workload="Grep", scale=2, machine=XEON_E5645)),
            key(RunSpec(workload="Grep", stack="spark", machine=XEON_E5645)),
            key(RunSpec(workload="Grep", machine=XEON_E5645),
                harness=Harness(seed=7)),
            key(RunSpec(workload="Grep", machine=XEON_E5645),
                harness=Harness(cluster=ClusterSpec(num_nodes=3))),
        }
        assert len(keys) == 6

    def test_no_result_cache_by_default(self):
        assert Harness().cache is None

    def test_a_storeless_harness_writes_nothing(self, tmp_path, monkeypatch):
        """The serving stream of a run goes through the harness's store,
        not the default one: ``artifacts=False`` writes nothing at all."""
        monkeypatch.setenv(stores.ENV_CACHE_DIR, str(tmp_path / "default"))
        Harness(artifacts=False).run(RunSpec(workload="Nutch Server"))
        assert not os.path.exists(str(tmp_path / "default"))

    def test_a_run_spills_its_serving_stream_to_the_harness_store(self,
                                                                  store):
        Harness(artifacts=store).run(RunSpec(workload="Nutch Server"))
        kinds = [entry.kind for entry in store.entries()]
        assert "stream" in kinds and "dataset" in kinds


class TestWarmStoreBudgets:
    """What the store buys, wall-clock (``pytest -m slow``)."""

    #: One workload per BDGS input kind: together they prepare every
    #: data source.
    PREPARE_SUITE = ["WordCount", "Index", "PageRank", "BFS", "Naive Bayes",
                     "Select Query", "Read", "K-means"]

    #: The serial-vs-parallel subset: batch MapReduce, NoSQL, query and
    #: service workloads.
    PARALLEL_SUBSET = ["Sort", "Grep", "Scan", "Select Query",
                       "Nutch Server", "PageRank"]

    def _prepare_all(self, store) -> float:
        harness = Harness(artifacts=store)
        start = time.perf_counter()
        for name in self.PREPARE_SUITE:
            harness.prepare(name, 1, seed=0)
        return time.perf_counter() - start

    @pytest.mark.slow
    def test_warm_inputs_prepare_at_least_twice_as_fast(self, tmp_path):
        store = Store(str(tmp_path / "store"))
        cold = self._prepare_all(store)
        assert store.misses >= len(self.PREPARE_SUITE) - 1
        warm = self._prepare_all(store)
        assert store.hits >= len(self.PREPARE_SUITE) - 1
        assert warm * 2 <= cold, f"warm {warm:.3f}s vs cold {cold:.3f}s"

    @pytest.mark.slow
    def test_warm_suite_at_least_five_times_the_cold_one(self, tmp_path):
        def events(points):
            return [dataclasses.asdict(p.report.events) for p in points]

        def timed(harness, names):
            start = time.perf_counter()
            points = harness.run_many([RunSpec(workload=name)
                                       for name in names])
            return points, time.perf_counter() - start

        suite = registry.workload_names()
        root = str(tmp_path / "results")
        cold_points, cold = timed(Harness(cache=Store(root)), suite)
        serial = {p.workload: p for p in cold_points}
        for point in Harness(jobs=2).run_many(
                [RunSpec(workload=name) for name in self.PARALLEL_SUBSET]):
            same = serial[point.workload]
            assert events([point]) == events([same]), point.workload
            assert point.result.metric_value == same.result.metric_value
        harness = Harness(cache=Store(root))
        warm_points, warm = timed(harness, suite)
        assert events(warm_points) == events(cold_points)
        assert harness.cache.hits == len(cold_points)
        assert warm * 5 <= cold, f"warm {warm:.2f}s vs cold {cold:.2f}s"
