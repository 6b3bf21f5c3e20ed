"""Input preparation: BDGS wiring shared by the 19 workloads.

Each helper estimates a model from the corresponding Table 2 seed once
(cached) and generates scaled synthetic inputs on demand -- the exact
estimate-then-generate pipeline of Section 5.  Baseline sizes are the
paper's Table 6 baselines shrunk by a constant factor (DESIGN.md,
substitution 3); the 1x..32x sweep geometry is preserved.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.datagen.graph import Graph, KroneckerModel
from repro.datagen.seeds import (
    amazon_movie_reviews,
    ecommerce_transactions,
    facebook_social_graph,
    google_web_graph,
    profsearch_resumes,
    wikipedia_entries,
)
from repro.datagen.table import (
    ECommerceData,
    ECommerceModel,
    ResumeModel,
    ResumeSet,
    ReviewModel,
    ReviewSet,
)
from repro.datagen.text import TextCorpus, TextModel
from repro.keyed import GUIDE_CHUNK
from repro.obs.metrics import METRICS

MB = 1024 * 1024


def _note_generated(kind: str, nbytes: float = 0.0, records: float = 0.0) -> None:
    """Record one BDGS generate call in the process-wide metrics."""
    METRICS.counter(f"datagen.{kind}.generated").inc()
    if nbytes:
        METRICS.counter("datagen.bytes_generated").inc(nbytes)
    if records:
        METRICS.counter("datagen.records_generated").inc(records)


def _artifact(kind: str, scale: int, seed: int, build, extra: tuple = ()):
    """Serve one BDGS input through the store's ``dataset`` kind.

    Inside a harness scope (the harness activates one around ``prepare``,
    see :mod:`repro.core.store`) every distinct input -- ``(kind,
    scale, seed) + extra`` -- exists once.  The scope's memo is asked
    first; without a store the harness keeps it for its life, so of the
    paper's 19 workloads, which read six data sets, those that read the
    same one share one read-only object.  Then the store, if one is
    attached, which makes it once machine-wide: a hit re-opens
    the spilled ``.npy`` arrays memory-mapped read-only; a miss runs
    ``build()`` and spills the result.  Outside any scope (bare
    ``prepare()`` calls) this is exactly ``build()``.
    """
    from repro.core import store

    memo = store.current_memo()
    if memo is None:
        return build()
    key = (kind, int(scale), int(seed)) + tuple(extra)
    target = store.current()
    if target is None:
        return _once(memo, key, build)
    # With a store the memo lasts one scope (one prepare), so every
    # prepare of a traced run opens this span, whoever made the data set
    # -- an earlier run of this harness, another process (``jobs=N``) or
    # nobody: the span tree is the same serially and fanned out.
    with store.current_ctx().span(f"artifact:{kind}", category="artifact",
                                  scale=scale, seed=seed) as span:
        span.set("hit", True)

        def open_or_spill():
            obj = target.get("dataset", key)
            if obj is None:
                span.set("hit", False)
                obj = target.put("dataset", key, build())
            return obj

        return _once(memo, key, open_or_spill)


def _once(memo: dict, key: tuple, make):
    """``memo[key]``, made (and its arrays set read-only) on first use."""
    from repro.core import store

    obj = memo.get(key)
    if obj is None:
        obj = memo[key] = store.frozen(make())
    else:
        METRICS.counter("datagen.memo_hit").inc()
    return obj


#: Baseline text volume: stands for the paper's 32 GB (shrunk 8192x).
BASE_TEXT_BYTES = 4 * MB

#: Baseline page count for Index/PageRank: stands for 10^6 pages.
BASE_PAGES = 2048

#: Baseline vertex count (log2) for BFS/CC/CF: stands for 2^15 vertices.
BASE_GRAPH_LOG2 = 13

#: Baseline request rate for service workloads (paper: 100 req/s).
BASE_RPS = 100

#: Baseline Cloud OLTP data volume: stands for 32 GB of records.
BASE_STORE_BYTES = 2 * MB

#: Baseline order count for the relational queries.
BASE_ORDERS = 4000


@lru_cache(maxsize=1)
def text_model() -> TextModel:
    return TextModel.estimate(wikipedia_entries(num_docs=1500))


def text_input(scale: int, seed: int = 0) -> TextCorpus:
    """Scaled Wikipedia-like corpus (~``scale`` x 4 MB)."""
    def build() -> TextCorpus:
        rng = np.random.default_rng(1000 + seed)
        corpus = text_model().generate_bytes(BASE_TEXT_BYTES * scale, rng)
        _note_generated("text", nbytes=corpus.nbytes, records=corpus.num_docs)
        return corpus

    return _artifact("text", scale, seed, build)


def pages_input(scale: int, seed: int = 0) -> TextCorpus:
    """Corpus with a fixed number of pages (Index/Nutch geometry)."""
    def build() -> TextCorpus:
        rng = np.random.default_rng(2000 + seed)
        corpus = text_model().generate(BASE_PAGES * scale, rng)
        _note_generated("pages", nbytes=corpus.nbytes, records=corpus.num_docs)
        return corpus

    return _artifact("pages", scale, seed, build)


@lru_cache(maxsize=1)
def web_graph_model() -> KroneckerModel:
    return KroneckerModel.estimate(google_web_graph(num_nodes=4096), iterations=12)


def web_graph_input(scale: int, seed: int = 0) -> Graph:
    """Scaled directed web graph: 2^12 baseline nodes, x4 per doubling."""
    def build() -> Graph:
        extra = max(0, int(round(np.log2(scale))))
        model = web_graph_model().scaled(extra)
        graph = model.generate(np.random.default_rng(3000 + seed))
        _note_generated("web_graph", records=graph.num_edges)
        return graph

    return _artifact("web_graph", scale, seed, build)


@lru_cache(maxsize=1)
def social_graph_model() -> KroneckerModel:
    return KroneckerModel.estimate(
        facebook_social_graph(num_nodes=4039), iterations=BASE_GRAPH_LOG2
    )


def social_graph_input(scale: int, seed: int = 0) -> Graph:
    """Scaled undirected social graph: 2^12 baseline vertices."""
    def build() -> Graph:
        extra = max(0, int(round(np.log2(scale))))
        model = social_graph_model().scaled(extra)
        graph = model.generate(np.random.default_rng(4000 + seed),
                               directed=False)
        _note_generated("social_graph", records=graph.num_edges)
        return graph

    return _artifact("social_graph", scale, seed, build)


@lru_cache(maxsize=1)
def review_model() -> ReviewModel:
    return ReviewModel.estimate(amazon_movie_reviews(num_reviews=3000))


def reviews_input(scale: int, seed: int = 0, base_reviews: int = 3000) -> ReviewSet:
    """Scaled Amazon-like review set."""
    def build() -> ReviewSet:
        rng = np.random.default_rng(5000 + seed)
        reviews = review_model().generate(base_reviews * scale, rng)
        _note_generated("reviews", nbytes=reviews.nbytes,
                        records=reviews.num_reviews)
        return reviews

    return _artifact("reviews", scale, seed, build, extra=(base_reviews,))


@lru_cache(maxsize=1)
def ecommerce_model() -> ECommerceModel:
    return ECommerceModel.estimate(ecommerce_transactions())


def ecommerce_input(scale: int, seed: int = 0) -> ECommerceData:
    """Scaled ORDER/ITEM transaction tables."""
    def build() -> ECommerceData:
        rng = np.random.default_rng(6000 + seed)
        data = ecommerce_model().generate(BASE_ORDERS * scale, rng)
        _note_generated("ecommerce", nbytes=data.nbytes,
                        records=data.orders.num_rows)
        return data

    return _artifact("ecommerce", scale, seed, build)


@lru_cache(maxsize=1)
def resume_model() -> ResumeModel:
    return ResumeModel.estimate(profsearch_resumes())


def resumes_input(scale: int, seed: int = 0) -> ResumeSet:
    """Scaled resume corpus sized to ~``scale`` x BASE_STORE_BYTES."""
    def build() -> ResumeSet:
        rng = np.random.default_rng(7000 + seed)
        probe = resume_model().generate(256, rng)
        avg = max(64.0, probe.value_sizes.mean())
        count = max(64, int(BASE_STORE_BYTES * scale / avg))
        resumes = resume_model().generate(count, rng)
        _note_generated("resumes", nbytes=float(resumes.value_sizes.sum()),
                        records=count)
        return resumes

    return _artifact("resumes", scale, seed, build)


#: K-means input geometry (lives here so the points ride the artifact
#: plane like every other data source; KmeansWorkload re-exports these).
#: Feature dimensionality and cluster count of the K-means input.
KMEANS_DIM = 8
KMEANS_K = 6

#: Points per baseline scale unit (stands for 32 GB of feature vectors).
KMEANS_BASE_POINTS = 24_000


def kmeans_points_input(scale: int, seed: int = 0) -> np.ndarray:
    """Clustered user-feature vectors for K-means (~``scale`` x 24k)."""
    def build() -> np.ndarray:
        rng = np.random.default_rng(8000 + seed)
        n = KMEANS_BASE_POINTS * scale
        # Mixture of true clusters so the algorithm has structure to find.
        true_centers = rng.normal(0, 6.0, size=(KMEANS_K, KMEANS_DIM))
        labels = rng.integers(0, KMEANS_K, size=n)
        # The noise is drawn into the output and each chunk's centers
        # are added to it there: ``noise + center`` is ``center +
        # noise`` to the bit, and no (n, dim) array of centers exists.
        points = rng.normal(0, 1.0, size=(n, KMEANS_DIM))
        rows = GUIDE_CHUNK // KMEANS_DIM
        for start in range(0, n, rows):
            points[start:start + rows] += true_centers[labels[start:start + rows]]
        _note_generated("kmeans_points", nbytes=points.nbytes, records=n)
        return points

    return _artifact("kmeans_points", scale, seed, build)
