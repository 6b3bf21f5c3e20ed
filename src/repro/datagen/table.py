"""Table and record data: relational tables, reviews, and resumes.

Covers the remaining data sources of Table 2:

* **E-commerce transaction data** (structured; Table 3 schema: ORDER and
  ITEM tables with a foreign key) -- input of the relational query
  workloads;
* **Amazon movie reviews** (semi-structured) -- input of Naive Bayes
  (sentiment classification) and Collaborative Filtering;
* **ProfSearch person resumes** (semi-structured) -- the value corpus of
  the "Cloud OLTP" workloads.

Each data family has a model with the BDGS estimate/generate split:
estimate parameters from a seed, then generate any requested volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datagen.models import (
    CategoricalColumnModel,
    NumericColumnModel,
    ZipfModel,
    fit_categorical_column,
    fit_numeric_column,
    fit_zipf,
)
from repro.datagen.text import TextCorpus
from repro.keyed import GUIDE_ABOVE, GUIDE_CHUNK, cdf_inverter


# ---------------------------------------------------------------------------
# Relational tables
# ---------------------------------------------------------------------------

@dataclass
class Table:
    """A named columnar table (ordered dict of equal-length numpy arrays)."""

    name: str
    columns: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"table {self.name!r} has ragged columns")

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    @property
    def column_names(self) -> list:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    @property
    def nbytes(self) -> int:
        """Serialized CSV-ish size: ~11 bytes per numeric field."""
        return self.num_rows * len(self.columns) * 11

    def schema(self) -> list:
        return [(name, str(col.dtype)) for name, col in self.columns.items()]

    def to_arrays(self) -> "tuple[dict, dict]":
        """Array codec (see :mod:`repro.core.store`)."""
        return ({"name": self.name, "order": list(self.columns)},
                dict(self.columns))

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "Table":
        """Rebuild from codec output; columns may be read-only memmaps."""
        return cls(name=meta["name"],
                   columns={name: arrays[name] for name in meta["order"]})


@dataclass(frozen=True)
class TableModel:
    """Per-column empirical model of a table (independent columns).

    Cross-column correlation is not modeled -- the same simplification
    BDGS's table generator makes for non-key columns; foreign-key
    structure is handled by :class:`ECommerceModel`.
    """

    name: str
    column_models: dict

    #: Integer columns with at most this many distinct values are modeled
    #: as categorical; everything else gets a histogram model.
    CATEGORICAL_LIMIT = 256

    @classmethod
    def estimate(cls, table: Table) -> "TableModel":
        if table.num_rows == 0:
            raise ValueError(f"cannot estimate model from empty table {table.name!r}")
        models = {}
        for name, col in table.columns.items():
            if np.issubdtype(col.dtype, np.integer) and (
                len(np.unique(col)) <= cls.CATEGORICAL_LIMIT
            ):
                models[name] = fit_categorical_column(col)
            else:
                models[name] = fit_numeric_column(col)
        return cls(name=table.name, column_models=models)

    def generate(self, num_rows: int, rng: np.random.Generator) -> Table:
        if num_rows < 0:
            raise ValueError("num_rows must be non-negative")
        columns = {}
        for name, model in self.column_models.items():
            values = model.sample(num_rows, rng)
            if isinstance(model, CategoricalColumnModel):
                columns[name] = np.asarray(values)
            else:
                columns[name] = np.asarray(values, dtype=np.float64)
        return Table(name=self.name, columns=columns)


# ---------------------------------------------------------------------------
# E-commerce ORDER / ITEM pair (paper Table 3)
# ---------------------------------------------------------------------------

@dataclass
class ECommerceData:
    """The two-table transaction data set: ORDER and ITEM."""

    orders: Table
    items: Table

    @property
    def nbytes(self) -> int:
        return self.orders.nbytes + self.items.nbytes

    def to_arrays(self) -> "tuple[dict, dict]":
        """Artifact codec: both tables, columns prefixed per table."""
        orders_meta, orders_cols = self.orders.to_arrays()
        items_meta, items_cols = self.items.to_arrays()
        arrays = {f"orders.{name}": col for name, col in orders_cols.items()}
        arrays.update({f"items.{name}": col for name, col in items_cols.items()})
        return {"orders": orders_meta, "items": items_meta}, arrays

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "ECommerceData":
        return cls(
            orders=Table.from_arrays(
                meta["orders"],
                {name: arrays[f"orders.{name}"]
                 for name in meta["orders"]["order"]}),
            items=Table.from_arrays(
                meta["items"],
                {name: arrays[f"items.{name}"]
                 for name in meta["items"]["order"]}),
        )


@dataclass(frozen=True)
class ECommerceModel:
    """Transaction-data model preserving the ORDER<-ITEM foreign key.

    Estimated quantities: the items-per-order distribution, buyer and
    goods popularity (Zipf), price and quantity column models, and the
    order-date span.
    """

    items_per_order: CategoricalColumnModel
    buyer_zipf: ZipfModel
    goods_zipf: ZipfModel
    price_model: NumericColumnModel
    quantity_model: CategoricalColumnModel
    date_lo: int
    date_hi: int

    @classmethod
    def estimate(cls, data: ECommerceData) -> "ECommerceModel":
        orders, items = data.orders, data.items
        if orders.num_rows == 0 or items.num_rows == 0:
            raise ValueError("cannot estimate from empty e-commerce data")
        per_order = np.bincount(
            np.searchsorted(
                np.sort(orders.column("ORDER_ID")), items.column("ORDER_ID")
            ),
            minlength=orders.num_rows,
        )
        buyer_freq = np.bincount(orders.column("BUYER_ID"))
        goods_freq = np.bincount(items.column("GOODS_ID"))
        dates = orders.column("CREATE_DATE")
        return cls(
            items_per_order=fit_categorical_column(np.maximum(per_order, 1)),
            buyer_zipf=fit_zipf(buyer_freq),
            goods_zipf=fit_zipf(goods_freq),
            price_model=fit_numeric_column(items.column("GOODS_PRICE")),
            quantity_model=fit_categorical_column(
                items.column("GOODS_NUMBER").astype(np.int64)
            ),
            date_lo=int(dates.min()),
            date_hi=int(dates.max()),
        )

    def generate(self, num_orders: int, rng: np.random.Generator) -> ECommerceData:
        if num_orders <= 0:
            raise ValueError("num_orders must be positive")
        order_ids = np.arange(num_orders, dtype=np.int64)
        buyers = self.buyer_zipf.sample(num_orders, rng)
        dates = rng.integers(self.date_lo, self.date_hi + 1, size=num_orders)
        orders = Table("ORDER", {
            "ORDER_ID": order_ids,
            "BUYER_ID": buyers.astype(np.int64),
            "CREATE_DATE": dates.astype(np.int64),
        })

        counts = self.items_per_order.sample(num_orders, rng).astype(np.int64)
        total_items = int(counts.sum())
        item_order_ids = np.repeat(order_ids, counts)
        prices = self.price_model.sample(total_items, rng)
        quantities = self.quantity_model.sample(total_items, rng).astype(np.float64)
        items = Table("ITEM", {
            "ITEM_ID": np.arange(total_items, dtype=np.int64),
            "ORDER_ID": item_order_ids,
            "GOODS_ID": self.goods_zipf.sample(total_items, rng).astype(np.int64),
            "GOODS_NUMBER": quantities,
            "GOODS_PRICE": prices,
            "GOODS_AMOUNT": prices * quantities,
        })
        return ECommerceData(orders=orders, items=items)


# ---------------------------------------------------------------------------
# Reviews (Amazon movie reviews stand-in)
# ---------------------------------------------------------------------------

@dataclass
class ReviewSet:
    """Semi-structured reviews: (user, movie, score, text tokens)."""

    user_ids: np.ndarray
    movie_ids: np.ndarray
    scores: np.ndarray          # integer 1..5
    corpus: TextCorpus          # one document per review
    num_users: int
    num_movies: int

    def __post_init__(self) -> None:
        n = len(self.user_ids)
        if not (len(self.movie_ids) == len(self.scores) == self.corpus.num_docs == n):
            raise ValueError("review fields must be parallel arrays")

    @property
    def num_reviews(self) -> int:
        return len(self.user_ids)

    def sentiment_labels(self) -> np.ndarray:
        """1 = positive (score >= 4), 0 = negative (score <= 2), -1 = neutral."""
        labels = np.full(self.num_reviews, -1, dtype=np.int64)
        labels[self.scores >= 4] = 1
        labels[self.scores <= 2] = 0
        return labels

    @property
    def nbytes(self) -> int:
        return self.corpus.nbytes + self.num_reviews * 24

    def to_arrays(self) -> "tuple[dict, dict]":
        """Array codec (see :mod:`repro.core.store`)."""
        corpus_meta, corpus_arrays = self.corpus.to_arrays()
        arrays = {"user_ids": self.user_ids, "movie_ids": self.movie_ids,
                  "scores": self.scores}
        arrays.update({f"corpus.{k}": v for k, v in corpus_arrays.items()})
        return ({"num_users": int(self.num_users),
                 "num_movies": int(self.num_movies),
                 "corpus": corpus_meta}, arrays)

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "ReviewSet":
        corpus = TextCorpus.from_arrays(
            meta["corpus"],
            {"tokens": arrays["corpus.tokens"],
             "doc_offsets": arrays["corpus.doc_offsets"]})
        return cls(user_ids=arrays["user_ids"], movie_ids=arrays["movie_ids"],
                   scores=arrays["scores"], corpus=corpus,
                   num_users=int(meta["num_users"]),
                   num_movies=int(meta["num_movies"]))


@dataclass(frozen=True)
class ReviewModel:
    """Empirical review model: popularity, score prior, per-class words.

    Word distributions are kept per sentiment class (smoothed empirical
    unigrams), so synthetic reviews remain *learnable* by Naive Bayes --
    the property the workload needs from the real Amazon data.
    """

    user_zipf: ZipfModel
    movie_zipf: ZipfModel
    score_model: CategoricalColumnModel
    class_word_probs: dict      # label -> np.ndarray over vocab
    log_len_mean: float
    log_len_sigma: float
    vocab_size: int

    @classmethod
    def estimate(cls, reviews: ReviewSet) -> "ReviewModel":
        if reviews.num_reviews == 0:
            raise ValueError("cannot estimate from an empty review set")
        labels = reviews.sentiment_labels()
        vocab = reviews.corpus.vocab_size
        # One label per *token* (repeat each doc's label over its length)
        # turns the per-document bincount loop into three masked
        # bincounts over the flat token array.
        token_labels = np.repeat(labels, reviews.corpus.doc_lengths())
        class_probs = {}
        for label in (-1, 0, 1):
            counts = 1.0 + np.bincount(  # Laplace smoothing
                reviews.corpus.tokens[token_labels == label], minlength=vocab
            ).astype(np.float64)
            class_probs[label] = counts / counts.sum()
        lengths = np.maximum(reviews.corpus.doc_lengths().astype(np.float64), 1.0)
        log_lengths = np.log(lengths)
        return cls(
            user_zipf=fit_zipf(np.bincount(reviews.user_ids, minlength=reviews.num_users)),
            movie_zipf=fit_zipf(np.bincount(reviews.movie_ids, minlength=reviews.num_movies)),
            score_model=fit_categorical_column(reviews.scores),
            class_word_probs=class_probs,
            log_len_mean=float(log_lengths.mean()),
            log_len_sigma=float(log_lengths.std()),
            vocab_size=vocab,
        )

    def generate(self, num_reviews: int, rng: np.random.Generator) -> ReviewSet:
        if num_reviews <= 0:
            raise ValueError("num_reviews must be positive")
        scores = self.score_model.sample(num_reviews, rng).astype(np.int64)
        labels = np.full(num_reviews, -1, dtype=np.int64)
        labels[scores >= 4] = 1
        labels[scores <= 2] = 0
        lengths = np.maximum(
            1, rng.lognormal(self.log_len_mean, self.log_len_sigma, num_reviews).astype(np.int64)
        )
        # Draw every document's uniforms in one call (sequential
        # ``rng.random(length)`` calls consume the identical stream) --
        # into the memory of the tokens, a float64 and an int64 being
        # eight bytes each -- then invert each class's draws through its
        # CDF, a chunk at a time, and write the word ids over them.  The
        # classes own disjoint positions, so a class never reads an id.
        offsets = np.zeros(num_reviews + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        tokens = np.empty(int(offsets[-1]), dtype=np.int64)
        draws = rng.random(out=tokens.view(np.float64))
        token_labels = np.repeat(labels.astype(np.int8), lengths)
        for label, probs in self.class_word_probs.items():
            invert = cdf_inverter(
                np.cumsum(probs),
                guided=lengths[labels == label].sum() >= GUIDE_ABOVE)
            for start in range(0, tokens.size, GUIDE_CHUNK):
                mine = token_labels[start:start + GUIDE_CHUNK] == label
                ids = tokens[start:start + GUIDE_CHUNK]
                ids[mine] = invert(draws[start:start + GUIDE_CHUNK][mine])
            del invert      # one guide table at a time
        corpus = TextCorpus(tokens=tokens, doc_offsets=offsets,
                            vocab_size=self.vocab_size)
        return ReviewSet(
            user_ids=self.user_zipf.sample(num_reviews, rng),
            movie_ids=self.movie_zipf.sample(num_reviews, rng),
            scores=scores,
            corpus=corpus,
            num_users=self.user_zipf.vocab_size,
            num_movies=self.movie_zipf.vocab_size,
        )


# ---------------------------------------------------------------------------
# Resumes (ProfSearch stand-in)
# ---------------------------------------------------------------------------

#: Field layout of a serialized resume record (field name -> mean bytes).
RESUME_FIELDS = {
    "name": 18,
    "institution": 32,
    "research_field": 24,
    "degree": 8,
    "publications": 240,
    "biography": 700,
}


@dataclass
class ResumeSet:
    """Semi-structured person resumes, the Cloud OLTP value corpus."""

    institution_ids: np.ndarray
    field_ids: np.ndarray
    degree_ids: np.ndarray
    publication_counts: np.ndarray
    value_sizes: np.ndarray      # serialized record size per resume, bytes

    @property
    def num_resumes(self) -> int:
        return len(self.institution_ids)

    @property
    def nbytes(self) -> int:
        return int(self.value_sizes.sum())

    def record_key(self, index: int) -> bytes:
        return f"resume:{index:012d}".encode()

    def to_arrays(self) -> "tuple[dict, dict]":
        """Array codec (see :mod:`repro.core.store`)."""
        return ({}, {"institution_ids": self.institution_ids,
                     "field_ids": self.field_ids,
                     "degree_ids": self.degree_ids,
                     "publication_counts": self.publication_counts,
                     "value_sizes": self.value_sizes})

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "ResumeSet":
        return cls(**{name: arrays[name]
                      for name in ("institution_ids", "field_ids",
                                   "degree_ids", "publication_counts",
                                   "value_sizes")})


@dataclass(frozen=True)
class ResumeModel:
    """Resume-corpus model: institution popularity, field mix, sizes."""

    institution_zipf: ZipfModel
    field_model: CategoricalColumnModel
    degree_model: CategoricalColumnModel
    pub_model: NumericColumnModel
    size_model: NumericColumnModel

    @classmethod
    def estimate(cls, resumes: ResumeSet) -> "ResumeModel":
        if resumes.num_resumes == 0:
            raise ValueError("cannot estimate from an empty resume set")
        return cls(
            institution_zipf=fit_zipf(np.bincount(resumes.institution_ids)),
            field_model=fit_categorical_column(resumes.field_ids),
            degree_model=fit_categorical_column(resumes.degree_ids),
            pub_model=fit_numeric_column(resumes.publication_counts),
            size_model=fit_numeric_column(resumes.value_sizes),
        )

    def generate(self, num_resumes: int, rng: np.random.Generator) -> ResumeSet:
        if num_resumes <= 0:
            raise ValueError("num_resumes must be positive")

        def rounded(model, floor):  # in place, then one cast
            values = model.sample(num_resumes, rng)
            return np.maximum(np.round(values, out=values), floor,
                              out=values).astype(np.int64)

        return ResumeSet(
            institution_ids=self.institution_zipf.sample(num_resumes, rng),
            field_ids=self.field_model.sample(num_resumes, rng).astype(
                np.int64, copy=False),
            degree_ids=self.degree_model.sample(num_resumes, rng).astype(
                np.int64, copy=False),
            publication_counts=rounded(self.pub_model, 0),
            value_sizes=rounded(self.size_model, 64),
        )
