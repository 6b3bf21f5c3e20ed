"""E-commerce workloads: Rubis Server, Collaborative Filtering, Naive
Bayes (Table 4, workloads 17-19).

The e-commerce domain contributes the Rubis auction service
(Apache+JBoss+MySQL), item-based Collaborative Filtering over the review
matrix, and Naive Bayes sentiment classification of review text -- the
workload with the *lowest* int/fp ratio in the suite (10, Figure 4)
because of its log-probability arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import ClusterSpec, PAPER_CLUSTER
from repro.cluster.ledger import CostLedger
from repro.core.workload import (
    DPS,
    OFFLINE,
    ONLINE,
    RPS,
    Workload,
    WorkloadInfo,
    WorkloadInput,
    WorkloadResult,
)
from repro.mapreduce import (
    Dfs,
    MapReduceJob,
    MapReduceRuntime,
    OpCost,
    SumByKeyJob,
)
from repro.serving import RubisServer, run_serving
from repro.uarch.perfctx import context_or_null
from repro.workloads import inputs
from repro.workloads.serving_front import serving_details, serving_spec


# ---------------------------------------------------------------------------
# Rubis Server (workload 17)
# ---------------------------------------------------------------------------

class RubisServerWorkload(Workload):
    """Online auction serving; load swept 100 x (1..32) req/s."""

    info = WorkloadInfo(
        name="Rubis Server", scenario="E-commerce", app_type=ONLINE,
        data_type="structured", data_source="table",
        stacks=("MySQL",), metric=RPS,
        input_description="100 x (1..32) req/s", workload_id=17,
    )
    default_stack = "mysql"

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        data = inputs.ecommerce_input(2, seed)
        server = RubisServer(data, seed=seed)
        return WorkloadInput(
            payload=server, nbytes=server.dataset_bytes(), scale=scale,
            details={"rate_rps": inputs.BASE_RPS * scale,
                     "items": server.num_items},
        )

    def run(self, prepared, ctx=None, cluster: ClusterSpec = PAPER_CLUSTER,
            stack: str = None) -> WorkloadResult:
        stack = self.check_stack(stack)
        ctx = context_or_null(ctx)
        report = run_serving(serving_spec(prepared, ctx, sample_requests=500),
                             ctx=ctx)
        return WorkloadResult(
            workload=self.info.name, stack=stack, scale=prepared.scale,
            input_bytes=prepared.nbytes, cost=report.cost,
            metric_name=RPS, metric_value=report.achieved_rps,
            details=serving_details(report),
        )


# ---------------------------------------------------------------------------
# Collaborative Filtering (workload 18)
# ---------------------------------------------------------------------------

#: Cap on rated items considered per user when forming pairs (Mahout-style
#: max-prefs-per-user cap, keeps the pair blowup bounded).
CF_MAX_ITEMS_PER_USER = 12


def cf_pairs_reference(user_ids, movie_ids) -> dict:
    """Reference co-occurrence counts with the same per-user cap."""
    by_user: dict = {}
    for user, movie in zip(user_ids.tolist(), movie_ids.tolist()):
        items = by_user.setdefault(user, [])
        if len(items) < CF_MAX_ITEMS_PER_USER:
            items.append(movie)
    counts: dict = {}
    for items in by_user.values():
        items = sorted(set(items))
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


class _CfGroupJob(MapReduceJob):
    """Job 1: group (user -> rated movies), emit co-occurring pairs."""

    name = "cf-group"
    map_cost = OpCost(int_ops=20, branch_ops=6, rand_writes=1)
    reduce_cost = OpCost(int_ops=30, branch_ops=10, rand_reads=2)
    intermediate_record_bytes = 16

    def __init__(self, num_movies: int):
        self.num_movies = num_movies

    def record_count(self, split):
        return len(split.payload)

    def map_batch(self, split, ctx):
        pairs = split.payload  # (n, 2): user, movie
        return pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)

    def reduce_batch(self, keys, values, starts, ctx):
        """Per user: emit capped item-item pair keys."""
        pair_keys = []
        stops = np.append(starts[1:], len(values))
        for lo, hi in zip(starts.tolist(), stops.tolist()):
            items = np.unique(values[lo:hi])[:CF_MAX_ITEMS_PER_USER]
            if len(items) < 2:
                continue
            a, b = np.triu_indices(len(items), k=1)
            pair_keys.append(items[a] * self.num_movies + items[b])
            ctx.int_ops(8 * len(a))
        if not pair_keys:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        keys_out = np.concatenate(pair_keys)
        return keys_out, np.ones(len(keys_out), dtype=np.int64)

    def working_bytes(self, input_nbytes):
        # Per-user preference vectors at paper scale (2^15 x scale users).
        return max(256 << 20, input_nbytes * 4096)


class _CfCountJob(SumByKeyJob):
    """Job 2: sum pair co-occurrence counts (the similarity matrix)."""

    name = "cf-count"
    map_cost = OpCost(int_ops=10, branch_ops=3, rand_writes=1)
    reduce_cost = OpCost(int_ops=8, fp_ops=2, branch_ops=2)
    intermediate_record_bytes = 16

    def record_count(self, split):
        return len(split.payload[0])

    def map_batch(self, split, ctx):
        keys, values = split.payload
        return keys.astype(np.int64), values.astype(np.int64)


class CollaborativeFilteringWorkload(Workload):
    """Offline item-based CF over the review matrix (two chained jobs)."""

    info = WorkloadInfo(
        name="Collaborative Filtering", scenario="E-commerce",
        app_type=OFFLINE, data_type="semi-structured", data_source="text",
        stacks=("Hadoop",), metric=DPS,
        input_description="2^15 x (1..32) vertices", workload_id=18,
    )

    #: Baseline review count (stands for 2^15 user vertices).
    BASE_REVIEWS = 6000

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        reviews = inputs.reviews_input(scale, seed, base_reviews=self.BASE_REVIEWS)
        pairs = np.column_stack([reviews.user_ids, reviews.movie_ids])
        return WorkloadInput(
            payload=(pairs, reviews.num_movies),
            nbytes=reviews.nbytes, scale=scale,
            details={"reviews": reviews.num_reviews,
                     "users": reviews.num_users,
                     "movies": reviews.num_movies},
        )

    def run(self, prepared, ctx=None, cluster: ClusterSpec = PAPER_CLUSTER,
            stack: str = None) -> WorkloadResult:
        stack = self.check_stack(stack)
        ctx = context_or_null(ctx)
        pairs, num_movies = prepared.payload
        runtime = MapReduceRuntime(cluster=cluster, ctx=ctx)
        dfs = Dfs()
        file = dfs.put("cf:reviews", pairs, prepared.nbytes)
        grouped = runtime.run(_CfGroupJob(num_movies), file)

        pair_bytes = grouped.output_records * 16
        pair_file = dfs.put(
            "cf:pairs", (grouped.output_keys, grouped.output_values), pair_bytes
        )
        counted = runtime.run(
            _CfCountJob(), pair_file,
            slicer=lambda payload, i, n: (np.array_split(payload[0], n)[i],
                                          np.array_split(payload[1], n)[i]),
        )
        ledger = CostLedger(cluster)
        cost = ledger.absorb(grouped.cost, counted.cost)
        total_cooccur = int(counted.output_values.sum())
        return WorkloadResult(
            workload=self.info.name, stack=stack, scale=prepared.scale,
            input_bytes=prepared.nbytes, cost=cost,
            metric_name=DPS,
            metric_value=self.dps(prepared.nbytes, cost, cluster),
            details={"pairs": counted.output_records,
                     "cooccurrences": total_cooccur},
        )


# ---------------------------------------------------------------------------
# Naive Bayes (workload 19)
# ---------------------------------------------------------------------------

class _NaiveBayesTrainJob(SumByKeyJob):
    """Count (class, word) occurrences across the training reviews."""

    name = "bayes-train"
    # Tokenization is integer work, but probability bookkeeping brings the
    # int/fp ratio down to ~10, the suite minimum (Figure 4).
    map_cost = OpCost(int_ops=26, fp_ops=45, branch_ops=7, rand_writes=1)
    reduce_cost = OpCost(int_ops=8, fp_ops=25, branch_ops=2)
    intermediate_record_bytes = 16

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def record_count(self, split):
        return len(split.payload)

    def map_batch(self, split, ctx):
        pairs = split.payload  # (n, 2): label, word
        keys = pairs[:, 0] * self.vocab_size + pairs[:, 1]
        return keys.astype(np.int64), None


class NaiveBayesWorkload(Workload):
    """Offline sentiment classification: train counts + classify."""

    info = WorkloadInfo(
        name="Naive Bayes", scenario="E-commerce", app_type=OFFLINE,
        data_type="semi-structured", data_source="text",
        stacks=("Hadoop",), metric=DPS,
        input_description="32 x (1..32) GB data", workload_id=19,
    )

    BASE_REVIEWS = 1500

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        reviews = inputs.reviews_input(scale, seed, base_reviews=self.BASE_REVIEWS)
        labels = reviews.sentiment_labels()
        keep = labels >= 0  # binary task: positive vs negative
        doc_labels = labels[keep]
        doc_indices = np.nonzero(keep)[0]
        return WorkloadInput(
            payload=(reviews, doc_indices, doc_labels),
            nbytes=reviews.nbytes, scale=scale,
            details={"reviews": reviews.num_reviews,
                     "labeled": int(keep.sum())},
        )

    def run(self, prepared, ctx=None, cluster: ClusterSpec = PAPER_CLUSTER,
            stack: str = None) -> WorkloadResult:
        stack = self.check_stack(stack)
        ctx = context_or_null(ctx)
        reviews, doc_indices, doc_labels = prepared.payload
        vocab = reviews.corpus.vocab_size

        # Train/test split: 80/20 on labeled documents.
        split_at = max(1, int(0.8 * len(doc_indices)))
        train_docs, test_docs = doc_indices[:split_at], doc_indices[split_at:]
        train_labels, test_labels = doc_labels[:split_at], doc_labels[split_at:]

        pairs = self._label_word_pairs(reviews, train_docs, train_labels)
        file = Dfs().put("bayes:train", pairs, int(prepared.nbytes * 0.8))
        result = MapReduceRuntime(cluster=cluster, ctx=ctx).run(
            _NaiveBayesTrainJob(vocab), file
        )

        accuracy = self._classify(ctx, reviews, test_docs, test_labels,
                                  result.output_keys, result.output_values,
                                  vocab, train_labels)
        return WorkloadResult(
            workload=self.info.name, stack=stack, scale=prepared.scale,
            input_bytes=prepared.nbytes, cost=result.cost,
            metric_name=DPS,
            metric_value=self.dps(prepared.nbytes, result.cost, cluster),
            details={"accuracy": accuracy,
                     "train_docs": int(len(train_docs)),
                     "test_docs": int(len(test_docs))},
        )

    @staticmethod
    def _label_word_pairs(reviews, docs, labels) -> np.ndarray:
        chunks = []
        for doc, label in zip(docs.tolist(), labels.tolist()):
            words = reviews.corpus.doc(doc)
            chunk = np.empty((len(words), 2), dtype=np.int64)
            chunk[:, 0] = label
            chunk[:, 1] = words
            chunks.append(chunk)
        return np.vstack(chunks) if chunks else np.empty((0, 2), dtype=np.int64)

    def _classify(self, ctx, reviews, test_docs, test_labels,
                  count_keys, count_values, vocab, train_labels) -> float:
        """Score held-out reviews with the learned log-probabilities."""
        counts = np.ones((2, vocab))  # Laplace smoothing
        classes = count_keys // vocab
        words = count_keys % vocab
        counts[classes, words] += count_values
        log_probs = np.log(counts / counts.sum(axis=1, keepdims=True))
        prior = np.log(np.bincount(train_labels, minlength=2) + 1.0)

        correct = 0
        total_words = 0
        for doc, label in zip(test_docs.tolist(), test_labels.tolist()):
            words_in_doc = reviews.corpus.doc(doc)
            total_words += len(words_in_doc)
            scores = prior + log_probs[:, words_in_doc].sum(axis=1)
            if int(np.argmax(scores)) == label:
                correct += 1
        ctx.fp_ops(40 * total_words)  # log-prob accumulation
        ctx.int_ops(10 * total_words)
        # The class-conditional model at paper scale (millions of terms).
        ctx.touch("bayes:model", 32 * 1024 * 1024)
        ctx.skewed_read("bayes:model", 2 * total_words,
                        hot_fraction=0.01, hot_prob=0.9)
        return correct / max(1, len(test_docs))
