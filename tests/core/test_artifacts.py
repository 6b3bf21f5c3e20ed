"""The shared input plane: codecs, store semantics, keying, and GC."""

import logging
import os
import shutil

import numpy as np
import pytest

from repro.core import artifacts
from repro.core.artifacts import (
    ArtifactStore,
    datagen_fingerprint,
    decode,
    encode,
    resolve_store,
)
from repro.datagen.graph import Graph, preferential_attachment
from repro.datagen.seeds import (
    amazon_movie_reviews,
    ecommerce_transactions,
    profsearch_resumes,
    wikipedia_entries,
)
from repro.datagen.table import ECommerceData, ResumeSet, ReviewSet, Table
from repro.datagen.text import TextCorpus


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(root=str(tmp_path / "artifacts"))


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

    def test_unknown_object_has_no_codec(self):
        with pytest.raises(TypeError):
            encode(object())


class TestStore:
    def test_miss_then_hit_round_trip(self, store):
        key = ("text", 1, 0)
        assert store.get(key) is None
        assert store.misses == 1
        corpus = wikipedia_entries(num_docs=30)
        stored = store.put(key, corpus)
        _assert_corpus_equal(stored, corpus)
        again = store.get(key)
        assert store.hits == 1
        _assert_corpus_equal(again, corpus)

    def test_get_returns_readonly_mmap_arrays(self, store):
        corpus = wikipedia_entries(num_docs=30)
        store.put(("k",), corpus)
        loaded = store.get(("k",))
        assert isinstance(loaded.tokens, np.memmap)
        assert not loaded.tokens.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            loaded.tokens[0] = 99

    def test_put_returns_the_mmap_backed_reread(self, store):
        graph = preferential_attachment(100, 3, np.random.default_rng(2))
        stored = store.put(("g",), graph)
        assert isinstance(stored.edges, np.memmap)

    def test_distinct_keys_do_not_collide(self, store):
        a = np.arange(4, dtype=np.int64)
        b = np.arange(8, dtype=np.int64)
        store.put(("k", 1, 0), a)
        store.put(("k", 1, 1), b)
        np.testing.assert_array_equal(store.get(("k", 1, 0)), a)
        np.testing.assert_array_equal(store.get(("k", 1, 1)), b)

    def test_uncodecable_object_passes_through(self, store):
        payload = {"not": "storable"}
        assert store.put(("k",), payload) is payload
        assert store.get(("k",)) is None

    def test_corrupt_npy_is_discarded_and_logged(self, store, caplog):
        store.put(("k",), np.arange(10, dtype=np.int64))
        directory = store.path(("k",))
        with open(os.path.join(directory, "array.npy"), "wb") as handle:
            handle.write(b"definitely not an npy file")
        with caplog.at_level(logging.WARNING, logger="repro.core.artifacts"):
            assert store.get(("k",)) is None
        assert any("corrupt artifact" in record.message
                   for record in caplog.records)
        assert not os.path.exists(directory)
        # The slot is reusable after the discard.
        store.put(("k",), np.arange(3, dtype=np.int64))
        np.testing.assert_array_equal(store.get(("k",)), np.arange(3))

    def test_truncated_meta_is_discarded(self, store):
        store.put(("k",), np.arange(10, dtype=np.int64))
        directory = store.path(("k",))
        with open(os.path.join(directory, "meta.json"), "w") as handle:
            handle.write('{"codec": "ndarr')
        assert store.get(("k",)) is None
        assert not os.path.exists(directory)

    def test_pickles_are_refused(self, store):
        # allow_pickle=False end to end: an object-dtype payload (would
        # need pickling) degrades to pass-through, never lands on disk.
        payload = np.array([{"a": 1}], dtype=object)
        assert store.put(("k",), payload) is payload
        assert store.get(("k",)) is None

    def test_unwritable_root_degrades_to_pass_through(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        store = ArtifactStore(root=str(blocked))
        array = np.arange(5, dtype=np.int64)
        assert store.put(("k",), array) is array


class TestKeying:
    def test_fingerprint_is_stable(self):
        assert datagen_fingerprint() == datagen_fingerprint(refresh=True)

    @pytest.mark.parametrize("edited", [
        "keyed.py", os.path.join("datagen", "models.py")])
    def test_editing_a_generator_source_changes_the_fingerprint(
            self, tmp_path, monkeypatch, edited):
        """The generators draw and group through ``repro.keyed``: an edit
        there must not serve inputs spilled by the old code."""
        import repro

        package = os.path.dirname(repro.__file__)
        copy = tmp_path / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))
        monkeypatch.setattr(artifacts, "_FINGERPRINT", None)
        assert datagen_fingerprint() == datagen_fingerprint(refresh=True)
        before = datagen_fingerprint()
        with open(copy / edited, "a") as handle:
            handle.write("# edited\n")
        assert datagen_fingerprint(refresh=True) != before

    def test_new_fingerprint_invalidates_old_entries(self, tmp_path):
        root = str(tmp_path)
        old = ArtifactStore(root=root, fingerprint="aaaa")
        old.put(("k",), np.arange(4, dtype=np.int64))
        new = ArtifactStore(root=root, fingerprint="bbbb")
        assert new.get(("k",)) is None
        assert old.get(("k",)) is not None

    def test_entries_report_staleness(self, tmp_path):
        root = str(tmp_path)
        stale = ArtifactStore(root=root, fingerprint="aaaa")
        stale.put(("old",), np.arange(4, dtype=np.int64))
        live = ArtifactStore(root=root)  # real fingerprint
        live.put(("new",), np.arange(4, dtype=np.int64))
        by_key = {entry.key: entry for entry in live.entries()}
        assert by_key[repr(("old",))].stale
        assert not by_key[repr(("new",))].stale


class TestGc:
    def test_gc_evicts_lru_first(self, store):
        for index in range(4):
            store.put(("k", index), np.zeros(25_000, dtype=np.int64))
        # Touch entry 0 so it is the most recently used.
        assert store.get(("k", 0)) is not None
        removed = store.gc(cap_bytes=450_000)
        assert removed
        assert store.get(("k", 0)) is not None
        assert repr(("k", 0)) not in {entry.key for entry in removed}
        assert store.total_bytes() <= 450_000

    def test_gc_prefers_stale_fingerprints(self, tmp_path):
        root = str(tmp_path)
        stale = ArtifactStore(root=root, fingerprint="aaaa")
        stale.put(("old",), np.zeros(25_000, dtype=np.int64))
        live = ArtifactStore(root=root)
        live.put(("new",), np.zeros(25_000, dtype=np.int64))
        removed = live.gc(cap_bytes=250_000)
        assert [entry.fingerprint for entry in removed] == ["aaaa"]
        assert live.get(("new",)) is not None

    def test_put_auto_gcs_over_cap(self, tmp_path):
        store = ArtifactStore(root=str(tmp_path), cap_bytes=300_000)
        for index in range(4):
            store.put(("k", index), np.zeros(25_000, dtype=np.int64))
        assert store.total_bytes() <= 300_000

    def test_clear_removes_everything(self, store):
        store.put(("k",), np.arange(4, dtype=np.int64))
        store.clear()
        assert store.entries() == []
        assert store.get(("k",)) is None


class TestResolveStoreAndActivation:
    def test_false_disables_and_instance_passes_through(self, store):
        assert resolve_store(False) is None
        assert resolve_store(store) is store

    def test_path_roots_a_store(self, tmp_path):
        built = resolve_store(str(tmp_path / "elsewhere"))
        assert isinstance(built, ArtifactStore)
        assert built.root == str(tmp_path / "elsewhere")

    def test_env_disables_default_store(self, monkeypatch):
        monkeypatch.setenv(artifacts.ENV_NO_ARTIFACTS, "1")
        assert resolve_store(None) is None

    def test_no_active_scope_means_no_store(self):
        assert artifacts.current_store() is None

    def test_activation_scopes_nest_and_restore(self, store):
        with artifacts.activated(store):
            assert artifacts.current_store() is store
            with artifacts.activated(None):
                assert artifacts.current_store() is None
            assert artifacts.current_store() is store
        assert artifacts.current_store() is None

    def test_bare_prepare_never_touches_the_store(self, tmp_path, monkeypatch):
        from repro.core import registry

        monkeypatch.setenv(artifacts.ENV_ARTIFACT_DIR, str(tmp_path / "fresh"))
        registry.create("Sort").prepare(1, seed=0)
        assert not os.path.exists(str(tmp_path / "fresh"))
