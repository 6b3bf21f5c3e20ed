"""Unit tests for the serving framework and the three servers."""

import numpy as np
import pytest

from repro.datagen.seeds import (
    ecommerce_transactions,
    facebook_social_graph,
    wikipedia_entries,
)
from repro.serving import (
    InvertedIndex,
    NutchServer,
    OlioServer,
    RubisServer,
    mm_c,
)
from repro.uarch import PerfContext, XEON_E5645


class TestQueueing:
    def test_low_load_latency_near_service_time(self):
        result = mm_c(offered_rps=10, service_seconds=0.001, servers=12)
        assert result.throughput_rps == 10
        assert result.mean_latency == pytest.approx(0.001, rel=0.05)
        assert not result.saturated

    def test_latency_grows_with_load(self):
        low = mm_c(100, 0.001, 12)
        high = mm_c(11000, 0.001, 12)
        assert high.mean_latency > low.mean_latency
        assert high.utilization > low.utilization

    def test_saturation_caps_throughput(self):
        result = mm_c(offered_rps=50_000, service_seconds=0.001, servers=12)
        assert result.saturated
        assert result.throughput_rps == pytest.approx(12_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            mm_c(-1, 0.001, 12)
        with pytest.raises(ValueError):
            mm_c(10, 0, 12)


class TestInvertedIndex:
    def test_postings_complete_and_sorted(self):
        corpus = wikipedia_entries(num_docs=50)
        index = InvertedIndex(corpus)
        word = int(corpus.tokens[0])
        postings = index.postings(word)
        # Every document containing the word appears in its postings.
        expected = {
            d for d in range(corpus.num_docs) if word in corpus.doc(d)
        }
        assert set(postings.tolist()) == expected

    def test_total_postings_equals_tokens(self):
        corpus = wikipedia_entries(num_docs=30)
        index = InvertedIndex(corpus)
        assert index.num_postings == corpus.num_tokens

    def test_out_of_range(self):
        index = InvertedIndex(wikipedia_entries(num_docs=5))
        with pytest.raises(IndexError):
            index.postings(10 ** 9)


def small_nutch():
    return NutchServer(wikipedia_entries(num_docs=80))


def small_olio():
    return OlioServer(facebook_social_graph(num_nodes=200), num_events=500)


def small_rubis():
    return RubisServer(ecommerce_transactions(num_orders=200))


class TestServers:
    @pytest.mark.parametrize("factory", [small_nutch, small_olio, small_rubis])
    def test_handle_runs_and_reports_type(self, factory):
        server = factory()
        rng = np.random.default_rng(0)
        ctx = PerfContext(XEON_E5645, seed=0)
        kinds = {server.handle(rng, ctx) for _ in range(40)}
        assert kinds  # at least one request type seen
        assert ctx.finalize().events.instructions > 0

    def test_olio_mix_covers_all_ops(self):
        server = small_olio()
        rng = np.random.default_rng(1)
        ctx = PerfContext(XEON_E5645, seed=0)
        kinds = {server.handle(rng, ctx) for _ in range(300)}
        assert kinds == {"home_timeline", "event_detail", "person_page", "add_event"}

    def test_rubis_bids_update_state(self):
        server = small_rubis()
        rng = np.random.default_rng(2)
        ctx = PerfContext(XEON_E5645, seed=0)
        before = server.bid_counts.sum()
        for _ in range(200):
            server.handle(rng, ctx)
        assert server.bid_counts.sum() > before

    def test_rubis_bids_concentrate_on_hot_items(self):
        server = small_rubis()
        rng = np.random.default_rng(3)
        ctx = PerfContext(XEON_E5645, seed=0)
        for _ in range(400):
            server._place_bid(rng, ctx)
        counts = np.sort(server.bid_counts)[::-1]
        assert counts[:10].sum() > 0.3 * counts.sum()

    def test_dataset_bytes_positive(self):
        for factory in (small_nutch, small_olio, small_rubis):
            assert factory().dataset_bytes() > 0

    def test_olio_validation(self):
        with pytest.raises(ValueError):
            OlioServer(facebook_social_graph(num_nodes=100), num_events=0)

