"""Nutch-like search server: inverted index serving (search engine domain).

Serves ranked keyword queries against an inverted index built from a
text corpus.  Query terms follow the corpus' own word distribution, so
popular postings stay cache-resident -- the reason the paper measures
Nutch with the *lowest* L2 and DTLB MPKI of the online services (its
per-request working set is small and hot) despite the deep server stack.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.text import TextCorpus
from repro.keyed import sort_group
from repro.serving.simulation import Server


class InvertedIndex:
    """word id -> sorted posting array of document ids."""

    def __init__(self, corpus: TextCorpus):
        doc_ids = np.repeat(
            np.arange(corpus.num_docs, dtype=np.int64), corpus.doc_lengths()
        )
        self._sorted_tokens, self._sorted_docs = sort_group(
            corpus.tokens, doc_ids)
        self._starts = np.searchsorted(self._sorted_tokens, np.arange(corpus.vocab_size))
        self._ends = np.searchsorted(
            self._sorted_tokens, np.arange(corpus.vocab_size), side="right"
        )
        self.vocab_size = corpus.vocab_size
        self.num_postings = len(self._sorted_docs)

    def postings(self, word_id: int) -> np.ndarray:
        if not 0 <= word_id < self.vocab_size:
            raise IndexError(f"word id {word_id} out of range")
        return self._sorted_docs[self._starts[word_id]:self._ends[word_id]]

    @property
    def nbytes(self) -> int:
        return self.num_postings * 8 + self.vocab_size * 16


class NutchServer(Server):
    """Keyword search with posting intersection and top-k ranking.

    Posting traversal is capped per term (top-k pruning, as production
    engines do), so popular-term queries stay bounded.  The search path
    is allocation-lean -- the paper measures Nutch's L2 MPKI at 4.1,
    an order below the other online services.
    """

    name = "Nutch Server"

    REQUEST_CHURN_BYTES = 192 * 1024

    #: Single-operation mix: every request is a ranked keyword search.
    MIX = (("search", 1.0),)

    #: Maximum postings consulted per query term (WAND-style pruning).
    POSTING_CAP = 2000

    def __init__(self, corpus: TextCorpus, top_k: int = 10):
        self.index = InvertedIndex(corpus)
        self.corpus = corpus
        self.top_k = top_k
        # Term sampling follows the corpus distribution: draw tokens.
        self._token_pool = corpus.tokens

    def dataset_bytes(self) -> int:
        return self.index.nbytes

    def handle(self, rng: np.random.Generator, ctx) -> str:
        index = self.index
        ctx.touch("nutch:index", index.nbytes)
        num_terms = int(rng.integers(2, 5))
        positions = rng.integers(0, len(self._token_pool), size=num_terms)
        terms = self._token_pool[positions]

        # Fetch postings: popular terms dominate, so index reads are hot.
        result = None
        postings_read = 0
        for term in terms.tolist():
            postings = index.postings(term)[: self.POSTING_CAP]
            postings_read += len(postings)
            result = (
                postings if result is None
                else np.intersect1d(result, postings, assume_unique=False)
            )
        ctx.skewed_read("nutch:index", max(1, postings_read),
                        hot_fraction=0.05, hot_prob=0.9)
        # A search request runs millions of instructions end to end:
        # HTTP/RPC path, query parsing, per-posting scoring loops.
        ctx.int_ops(320 * postings_read + 900_000)
        ctx.branch_ops(90 * postings_read + 260_000)

        # Rank candidates: score + partial top-k sort.
        candidates = len(result) if result is not None else 0
        ctx.fp_ops(60 * candidates + 14_000)  # tf-idf style scoring
        ctx.int_ops(140 * candidates)
        hits = min(self.top_k, candidates)
        ctx.seq_write("nutch:response", 256 + 128 * hits)
        return "search"
