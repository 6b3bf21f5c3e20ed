"""Tests for seed data sets, format converters, and veracity (claim C6)."""

import numpy as np
import pytest

from repro.datagen import (
    KroneckerModel,
    SEED_REGISTRY,
    TextModel,
    amazon_movie_reviews,
    csv_lines,
    ecommerce_transactions,
    edge_list_lines,
    facebook_social_graph,
    google_web_graph,
    graph_veracity,
    kv_records,
    load_seed,
    profsearch_resumes,
    split_blocks,
    table_veracity,
    text_lines,
    text_veracity,
    wikipedia_entries,
)
from repro.datagen.table import ECommerceModel
from repro.mapreduce import Dfs, MapReduceRuntime
from repro.uarch import PerfContext, XEON_E5645
from repro.workloads.micro import _WordCountJob


class TestSeedRegistry:
    def test_six_seeds_match_table2(self):
        assert len(SEED_REGISTRY) == 6
        names = [s.name for s in SEED_REGISTRY]
        assert "Wikipedia Entries" in names
        assert "ProfSearch Person Resumes" in names

    def test_type_and_source_coverage(self):
        """Table 2 spans all three data types and all three sources."""
        types = {s.data_type for s in SEED_REGISTRY}
        sources = {s.data_source for s in SEED_REGISTRY}
        assert types == {"structured", "semi-structured", "unstructured"}
        assert sources == {"text", "graph", "table"}

    def test_load_seed_by_name(self):
        graph = load_seed("Facebook Social Network")
        assert graph.num_nodes == 4039
        with pytest.raises(KeyError):
            load_seed("nonexistent")

    def test_seeds_are_deterministic(self):
        first = wikipedia_entries(num_docs=50)
        second = wikipedia_entries(num_docs=50)
        assert np.array_equal(first.tokens, second.tokens)

    def test_facebook_scale_matches_paper(self):
        graph = facebook_social_graph()
        assert graph.num_nodes == 4039
        assert 60_000 < graph.num_edges < 120_000  # paper: 88234


class TestFormats:
    def test_text_lines(self):
        corpus = wikipedia_entries(num_docs=3)
        lines = list(text_lines(corpus, limit=2))
        assert len(lines) == 2
        assert all(" " in line for line in lines)

    def test_edge_list_lines(self):
        graph = google_web_graph(num_nodes=64)
        lines = list(edge_list_lines(graph, limit=5))
        assert len(lines) == 5
        src, dst = lines[0].split("\t")
        assert src.isdigit() and dst.isdigit()

    def test_csv_lines(self):
        data = ecommerce_transactions(num_orders=10)
        lines = list(csv_lines(data.orders, limit=4))
        assert lines[0] == "ORDER_ID,BUYER_ID,CREATE_DATE"
        assert len(lines) == 5  # header + 4 rows

    def test_split_blocks(self):
        blocks = split_blocks(200, block_size=64)
        assert [b.length for b in blocks] == [64, 64, 64, 8]
        assert blocks[-1].offset == 192
        assert split_blocks(0) == []
        with pytest.raises(ValueError):
            split_blocks(10, block_size=0)

    def test_kv_records(self):
        records = list(kv_records(np.array([100, 200]), key_prefix="r"))
        assert records[0] == ("r:000000000000", 100)
        assert records[1][1] == 200


def _wordcount_view(corpus) -> dict:
    """WordCount on ``corpus`` under the profiler: what it can see."""
    ctx = PerfContext(XEON_E5645, seed=0)
    file = Dfs().put("veracity:input", corpus.tokens, corpus.nbytes)
    result = MapReduceRuntime(ctx=ctx).run(_WordCountJob(), file)
    events = ctx.finalize().events
    counters = result.counters
    return {
        "combiner_ratio": (counters.get("map_output_records")
                           / counters.get("map_input_records")),
        "l1i_mpki": events.l1i_mpki,
        "l2_mpki": events.l2_mpki,
        "dtlb_mpki": events.dtlb_mpki,
    }


class TestVeracityC6:
    """Claim C6: BDGS-synthesized data preserves seed characteristics."""

    def test_text_veracity(self):
        seed = wikipedia_entries(num_docs=1200)
        model = TextModel.estimate(seed)
        synth = model.generate(1200, np.random.default_rng(0))
        metrics = text_veracity(seed, synth)
        assert metrics["zipf_alpha_error"] < 0.2
        assert metrics["head_tv_distance"] < 0.3
        assert 0.8 < metrics["mean_doc_len_ratio"] < 1.25

    def test_wordcount_cannot_tell_seed_from_synthetic(self):
        """The ablation through a workload's eyes: WordCount's combiner
        effectiveness (the word distribution) within 15%, its cache and
        TLB misses within 25%, on seed and synthetic text alike."""
        seed = wikipedia_entries(num_docs=1200)
        synth = TextModel.estimate(seed).generate(
            seed.num_docs, np.random.default_rng(0))
        on_seed, on_synth = _wordcount_view(seed), _wordcount_view(synth)
        assert on_synth["combiner_ratio"] == pytest.approx(
            on_seed["combiner_ratio"], rel=0.15)
        for metric in ("l1i_mpki", "l2_mpki", "dtlb_mpki"):
            assert on_synth[metric] == pytest.approx(
                on_seed[metric], rel=0.25), metric

    def test_text_veracity_at_4x_volume(self):
        """Veracity must hold while volume scales (4V together)."""
        seed = wikipedia_entries(num_docs=800)
        model = TextModel.estimate(seed)
        synth = model.generate(3200, np.random.default_rng(1))
        metrics = text_veracity(seed, synth)
        assert metrics["zipf_alpha_error"] < 0.2

    def test_graph_veracity(self):
        seed = google_web_graph(num_nodes=4096)
        model = KroneckerModel.estimate(seed)
        synth = model.generate(np.random.default_rng(2))
        metrics = graph_veracity(seed, synth)
        assert metrics["density_synthetic"] == pytest.approx(
            metrics["density_seed"], rel=0.25
        )
        assert metrics["gamma_synthetic"] == pytest.approx(
            metrics["gamma_seed"], abs=0.6
        )

    def test_graph_veracity_at_4x_volume(self):
        seed = google_web_graph(num_nodes=1024)
        model = KroneckerModel.estimate(seed).scaled(2)  # 4x nodes
        synth = model.generate(np.random.default_rng(3))
        assert synth.num_nodes == 4096
        density_seed = seed.num_edges / seed.num_nodes
        # Kronecker density grows slowly with iterations; stay within 2x.
        density_synth = synth.num_edges / synth.num_nodes
        assert 0.5 < density_synth / density_seed < 2.5

    def test_table_veracity(self):
        seed = ecommerce_transactions()
        model = ECommerceModel.estimate(seed)
        synth = model.generate(seed.orders.num_rows, np.random.default_rng(4))
        metrics = table_veracity(seed.items, synth.items)
        # Value columns must track closely; id columns are ramps and
        # depend only on row counts.
        assert metrics["ks:GOODS_PRICE"] < 0.06
        assert metrics["ks:GOODS_NUMBER"] < 0.06
        assert metrics["ks:GOODS_ID"] < 0.2

    def test_table_veracity_missing_column(self):
        seed = ecommerce_transactions()
        with pytest.raises(KeyError):
            table_veracity(seed.orders, seed.items)

    def test_resume_sizes_realistic(self):
        resumes = profsearch_resumes()
        assert 500 < resumes.value_sizes.mean() < 4000  # ~1 KB records

    def test_reviews_j_shaped_scores(self):
        reviews = amazon_movie_reviews(num_reviews=4000)
        counts = np.bincount(reviews.scores, minlength=6)[1:]
        assert counts[4] == counts.max()  # 5-star dominates
        assert counts[0] > counts[1]      # 1-star beats 2-star
