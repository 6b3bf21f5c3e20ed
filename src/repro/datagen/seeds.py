"""The six representative real-world seed data sets (paper Table 2).

The originals (Wikipedia, Amazon movie reviews, the Google web graph,
the Facebook ego-network graph, an anonymous e-commerce site's
transactions, and ProfSearch resumes) are not redistributable here, so
each seed is a synthetic stand-in with the same schema, data type, data
source, and documented statistical character -- built by *different*
generative mechanisms than the models BDGS fits, so the
estimate-then-generate pipeline is exercised honestly (see DESIGN.md,
substitution 4).

Seed sizes are scaled down from Table 2 by roughly 1000x so they build
in milliseconds; the BDGS generators scale them back up on demand.
All construction is deterministic given the module-level seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.graph import Graph, preferential_attachment
from repro.datagen.table import ECommerceData, ResumeSet, ReviewSet, Table
from repro.datagen.text import TextCorpus
from repro.keyed import inverse_cdf


@dataclass(frozen=True)
class SeedInfo:
    """One row of the paper's Table 2."""

    number: int
    name: str
    data_type: str      # structured / semi-structured / unstructured
    data_source: str    # text / graph / table
    paper_size: str     # as reported in Table 2
    our_size: str       # the stand-in's size


#: The paper's Table 2, with our stand-in sizes alongside.
SEED_REGISTRY = [
    SeedInfo(1, "Wikipedia Entries", "unstructured", "text",
             "4,300,000 English articles", "4,300 synthetic articles"),
    SeedInfo(2, "Amazon Movie Reviews", "semi-structured", "text",
             "7,911,684 reviews", "7,912 synthetic reviews"),
    SeedInfo(3, "Google Web Graph", "unstructured", "graph",
             "875713 nodes, 5105039 edges", "8,192 nodes, ~47k edges"),
    SeedInfo(4, "Facebook Social Network", "unstructured", "graph",
             "4039 nodes, 88234 edges", "4,039 nodes, ~88k edges"),
    SeedInfo(5, "E-commerce Transaction Data", "structured", "table",
             "Table 1: 4 columns, 38658 rows. Table 2: 6 columns, 242735 rows",
             "ORDER: 3867 rows. ITEM: ~24k rows"),
    SeedInfo(6, "ProfSearch Person Resumes", "semi-structured", "table",
             "278956 resumes", "2,790 synthetic resumes"),
]


def wikipedia_entries(num_docs: int = 4300, vocab_size: int = 40000) -> TextCorpus:
    """Unstructured text seed: topic-mixture articles.

    Articles are drawn from a 24-topic mixture; each topic is a permuted
    heavy-tailed distribution over the shared vocabulary, so the aggregate
    rank-frequency curve is Zipf-like without being generated by the
    single-Zipf model BDGS will fit to it.
    """
    rng = np.random.default_rng(101)
    num_topics = 24
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    base = ranks ** -1.05
    topic_cdfs = []
    for _ in range(num_topics):
        perm = rng.permutation(vocab_size)
        # Each topic reuses the heavy tail but concentrates on its own words.
        weights = base.copy()
        weights[perm[:200]] *= 40.0
        topic_cdfs.append(np.cumsum(weights / weights.sum()))
    doc_lengths = np.maximum(30, rng.lognormal(5.6, 0.9, num_docs).astype(np.int64))
    topic_choice = rng.integers(0, num_topics, size=num_docs)
    # One uniform draw for all documents (identical stream to per-doc
    # draws in document order), one inversion per topic.
    offsets = np.zeros(num_docs + 1, dtype=np.int64)
    np.cumsum(doc_lengths, out=offsets[1:])
    u = rng.random(int(offsets[-1]))
    token_topics = np.repeat(topic_choice, doc_lengths)
    tokens = np.empty(int(offsets[-1]), dtype=np.int64)
    for topic in range(num_topics):
        mask = token_topics == topic
        if mask.any():
            tokens[mask] = inverse_cdf(topic_cdfs[topic], u[mask])
    return TextCorpus(tokens=tokens, doc_offsets=offsets, vocab_size=vocab_size)


def amazon_movie_reviews(
    num_reviews: int = 7912,
    num_users: int = 2530,
    num_movies: int = 890,
    vocab_size: int = 8000,
) -> ReviewSet:
    """Semi-structured review seed with a genuine sentiment signal.

    Scores follow the J-shaped distribution of real review sites; review
    text mixes a shared vocabulary with score-dependent opinion words so
    sentiment classification is learnable.
    """
    rng = np.random.default_rng(102)
    # J-shaped score distribution (5s dominate, then 1s and 4s).
    scores = rng.choice([1, 2, 3, 4, 5], size=num_reviews,
                        p=[0.12, 0.06, 0.10, 0.22, 0.50]).astype(np.int64)
    user_pop = (np.arange(1, num_users + 1, dtype=np.float64)) ** -0.9
    movie_pop = (np.arange(1, num_movies + 1, dtype=np.float64)) ** -1.1
    user_cdf = np.cumsum(user_pop / user_pop.sum())
    movie_cdf = np.cumsum(movie_pop / movie_pop.sum())
    user_ids = inverse_cdf(user_cdf, rng.random(num_reviews))
    movie_ids = inverse_cdf(movie_cdf, rng.random(num_reviews))

    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    shared = ranks ** -1.0
    shared /= shared.sum()
    # Opinion lexicons: dedicated id ranges get boosted per sentiment.
    positive = shared.copy()
    positive[1000:1250] *= 60.0
    negative = shared.copy()
    negative[2000:2250] *= 60.0
    neutral = shared
    cdfs = {
        1: np.cumsum(positive / positive.sum()),
        0: np.cumsum(negative / negative.sum()),
        -1: np.cumsum(neutral / neutral.sum()),
    }
    labels = np.full(num_reviews, -1, dtype=np.int64)
    labels[scores >= 4] = 1
    labels[scores <= 2] = 0
    lengths = np.maximum(8, rng.lognormal(4.2, 0.7, num_reviews).astype(np.int64))
    offsets = np.zeros(num_reviews + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    u = rng.random(int(offsets[-1]))
    token_labels = np.repeat(labels, lengths)
    tokens = np.empty(int(offsets[-1]), dtype=np.int64)
    for label, cdf in cdfs.items():
        mask = token_labels == label
        if mask.any():
            tokens[mask] = inverse_cdf(cdf, u[mask])
    return ReviewSet(
        user_ids=user_ids,
        movie_ids=movie_ids,
        scores=scores,
        corpus=TextCorpus(tokens=tokens, doc_offsets=offsets,
                          vocab_size=vocab_size),
        num_users=num_users,
        num_movies=num_movies,
    )


def google_web_graph(num_nodes: int = 8192) -> Graph:
    """Directed web-graph seed (preferential attachment, avg degree ~5.8
    like the real Google web graph's 5105039/875713)."""
    rng = np.random.default_rng(103)
    return preferential_attachment(num_nodes, edges_per_node=6, rng=rng, directed=True)


def facebook_social_graph(num_nodes: int = 4039) -> Graph:
    """Undirected social-graph seed at the real data set's exact scale
    (4039 nodes, ~88k edges -> ~22 edges per node)."""
    rng = np.random.default_rng(104)
    graph = preferential_attachment(num_nodes, edges_per_node=22, rng=rng, directed=False)
    return graph


def ecommerce_transactions(num_orders: int = 3867) -> ECommerceData:
    """Structured transaction seed following the paper's Table 3 schema."""
    rng = np.random.default_rng(105)
    num_buyers = max(50, num_orders // 8)
    buyer_pop = np.arange(1, num_buyers + 1, dtype=np.float64) ** -1.2
    buyer_cdf = np.cumsum(buyer_pop / buyer_pop.sum())
    orders = Table("ORDER", {
        "ORDER_ID": np.arange(num_orders, dtype=np.int64),
        "BUYER_ID": inverse_cdf(buyer_cdf, rng.random(num_orders)),
        "CREATE_DATE": rng.integers(15000, 15700, size=num_orders).astype(np.int64),
    })
    # Items per order: mostly small baskets with a heavy tail.
    basket = np.minimum(1 + rng.geometric(0.18, size=num_orders), 40).astype(np.int64)
    total_items = int(basket.sum())
    num_goods = 1200
    goods_pop = np.arange(1, num_goods + 1, dtype=np.float64) ** -1.0
    goods_cdf = np.cumsum(goods_pop / goods_pop.sum())
    prices = np.round(np.exp(rng.normal(3.0, 1.1, total_items)), 2)
    quantities = np.minimum(1 + rng.geometric(0.5, size=total_items), 20).astype(np.float64)
    items = Table("ITEM", {
        "ITEM_ID": np.arange(total_items, dtype=np.int64),
        "ORDER_ID": np.repeat(orders.column("ORDER_ID"), basket),
        "GOODS_ID": inverse_cdf(goods_cdf, rng.random(total_items)),
        "GOODS_NUMBER": quantities,
        "GOODS_PRICE": prices,
        "GOODS_AMOUNT": prices * quantities,
    })
    return ECommerceData(orders=orders, items=items)


def profsearch_resumes(num_resumes: int = 2790) -> ResumeSet:
    """Semi-structured resume seed (institutions Zipf over ~200, as the
    real corpus spans ~200 universities and institutes)."""
    rng = np.random.default_rng(106)
    num_institutions = 200
    inst_pop = np.arange(1, num_institutions + 1, dtype=np.float64) ** -0.8
    inst_cdf = np.cumsum(inst_pop / inst_pop.sum())
    pubs = np.maximum(0, rng.lognormal(2.0, 1.2, num_resumes)).astype(np.int64)
    sizes = np.maximum(
        256, rng.normal(1024, 300, num_resumes) + 12 * pubs
    ).astype(np.int64)
    return ResumeSet(
        institution_ids=inverse_cdf(inst_cdf, rng.random(num_resumes)),
        field_ids=rng.integers(0, 30, size=num_resumes).astype(np.int64),
        degree_ids=rng.choice(3, size=num_resumes, p=[0.2, 0.3, 0.5]).astype(np.int64),
        publication_counts=pubs,
        value_sizes=sizes,
    )


def load_seed(name: str):
    """Load a seed by its Table 2 name."""
    loaders = {
        "Wikipedia Entries": wikipedia_entries,
        "Amazon Movie Reviews": amazon_movie_reviews,
        "Google Web Graph": google_web_graph,
        "Facebook Social Network": facebook_social_graph,
        "E-commerce Transaction Data": ecommerce_transactions,
        "ProfSearch Person Resumes": profsearch_resumes,
    }
    try:
        return loaders[name]()
    except KeyError:
        raise KeyError(f"unknown seed data set {name!r}") from None
