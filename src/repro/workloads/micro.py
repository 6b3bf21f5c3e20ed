"""Micro benchmarks: Sort, Grep, WordCount (Table 4, workloads 1-3).

Offline analytics over unstructured text, available on all three
analytics stacks (Hadoop MapReduce, Spark, MPI).  These are the
fundamental operations the paper includes "since they are fundamental
and widely used"; Grep is the extreme of the suite's integer-dominance
(int/fp ratio 179, the maximum in Figure 4).
"""

from __future__ import annotations

import numpy as np

from repro.mapreduce import (
    Dfs,
    MapReduceJob,
    MapReduceRuntime,
    OpCost,
    SumByKeyJob,
    charge_sort,
)
from repro.core.workload import (
    DPS,
    OFFLINE,
    Workload,
    WorkloadInfo,
    WorkloadInput,
)
from repro.keyed import GUIDE_CHUNK
from repro.mpi import BspProgram, BspRuntime
from repro.spark import SparkContext
from repro.workloads import inputs

ANALYTICS_STACKS = ("Hadoop", "Spark", "MPI")


class _TextWorkload(Workload):
    """Shared input preparation for the text micro benchmarks."""

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        corpus = inputs.text_input(scale, seed)
        return WorkloadInput(
            payload=corpus,
            nbytes=corpus.nbytes,
            scale=scale,
            details={"tokens": corpus.num_tokens, "docs": corpus.num_docs},
        )


# ---------------------------------------------------------------------------
# Sort
# ---------------------------------------------------------------------------

class _SortJob(MapReduceJob):
    name = "sort"
    partitioner = "range"
    group_by_key = False
    map_cost = OpCost(int_ops=8, branch_ops=2)
    reduce_cost = OpCost(int_ops=6, branch_ops=2)
    intermediate_record_bytes = 16

    #: Our input stands for 8192x more data (4 MB -> 32 GB baseline).
    PAPER_RATIO = 8192

    def map_batch(self, split, ctx):
        return split.payload.astype(np.int64, copy=False), None

    def working_bytes(self, input_nbytes):
        return input_nbytes * self.PAPER_RATIO

    def output_bytes(self, input_nbytes, counters):
        return input_nbytes  # sort writes everything back


class _BspSampleSort(BspProgram):
    """Two-superstep sample sort: local sort + range exchange + merge."""

    name = "mpi-sort"

    def __init__(self, tokens: np.ndarray, num_ranks: int, nbytes: int):
        self.chunks = np.array_split(tokens, num_ranks)
        self.nbytes = nbytes
        lo, hi = (tokens.min(), tokens.max()) if len(tokens) else (0, 1)
        self.boundaries = np.linspace(lo, hi, num_ranks + 1)[1:-1]

    def input_bytes(self):
        return self.nbytes

    def init_rank(self, rank, num_ranks, ctx):
        return {"data": self.chunks[rank], "received": [], "sorted": None}

    def superstep(self, step, rank, state, inbox, comm, ctx):
        if step == 0:
            data = state["data"]
            charge_sort(ctx, len(data), f"mpi:sort:{rank}", 8)
            data = np.sort(data)
            cuts = np.searchsorted(data, self.boundaries)
            for dst, chunk in enumerate(np.split(data, cuts)):
                if len(chunk):
                    comm.send(dst, chunk)
            return True
        if step == 1:
            received = inbox if inbox else [np.empty(0, dtype=np.int64)]
            merged = np.concatenate(received)
            charge_sort(ctx, len(merged), f"mpi:merge:{rank}", 8)
            state["sorted"] = np.sort(merged)
        return False


class SortWorkload(_TextWorkload):
    """Workload 1: total-order sort of the input tokens."""

    info = WorkloadInfo(
        name="Sort", scenario="Micro Benchmarks", app_type=OFFLINE,
        data_type="unstructured", data_source="text",
        stacks=ANALYTICS_STACKS, metric=DPS,
        input_description="32 x (1..32) GB data", workload_id=1,
    )

    def hadoop(self, prepared, ctx, cluster):
        file = Dfs().put("sort:input", prepared.payload.tokens, prepared.nbytes)
        result = MapReduceRuntime(cluster=cluster, ctx=ctx).run(_SortJob(), file)
        return result.output_keys, result.cost

    def spark(self, prepared, ctx, cluster):
        sc = SparkContext(cluster=cluster, ctx=ctx)
        file = Dfs().put("sort:input", prepared.payload.tokens, prepared.nbytes)
        parts = sc.from_dfs(file).sort_by_key().collect()
        return (np.concatenate(parts) if parts else np.empty(0)), sc.cost

    def mpi(self, prepared, ctx, cluster):
        runtime = BspRuntime(cluster=cluster, ctx=ctx)
        bsp = runtime.run(_BspSampleSort(prepared.payload.tokens,
                                         runtime.num_ranks, prepared.nbytes))
        merged = np.concatenate(
            [s["sorted"] for s in bsp.states if s["sorted"] is not None]
        )
        return merged, bsp.cost

    def check(self, prepared, output):
        return {"sorted": bool(np.all(np.diff(output) >= 0)),
                "records": int(len(output))}


# ---------------------------------------------------------------------------
# Grep
# ---------------------------------------------------------------------------

#: Pattern-match congruence: word ids ``= 123 (mod 499)``.  Skipping the
#: Zipf head keeps matches rare (~0.2% of tokens), like a real grep for
#: an uncommon string.
GREP_MODULUS = 499
GREP_REMAINDER = 123


#: Byte-wise pattern matching per token, on every stack: the most
#: integer/branch-heavy kernel in the suite (paper: int/fp ratio 179,
#: MIPS keeps rising to 32x).
GREP_MATCH_COST = OpCost(int_ops=95, branch_ops=38)


def grep_mask(tokens: np.ndarray) -> np.ndarray:
    """``tokens % GREP_MODULUS == GREP_REMAINDER``, one chunk of
    remainders at a time: the mask is the only full-size array."""
    mask = np.empty(len(tokens), dtype=bool)
    for start in range(0, len(tokens), GUIDE_CHUNK):
        chunk = tokens[start:start + GUIDE_CHUNK]
        np.equal(chunk % GREP_MODULUS, GREP_REMAINDER,
                 out=mask[start:start + len(chunk)])
    return mask


def grep_count(tokens: np.ndarray) -> int:
    """``int(grep_mask(tokens).sum())`` without the mask."""
    return sum(int(np.count_nonzero(grep_mask(tokens[start:start + GUIDE_CHUNK])))
               for start in range(0, len(tokens), GUIDE_CHUNK))


class _GrepJob(MapReduceJob):
    name = "grep"
    group_by_key = False
    map_cost = GREP_MATCH_COST
    reduce_cost = OpCost(int_ops=4, branch_ops=1)
    intermediate_record_bytes = 60

    def map_batch(self, split, ctx):
        tokens = split.payload
        matches = tokens[grep_mask(tokens)]
        return matches.astype(np.int64, copy=False), None


class _BspGrep(BspProgram):
    name = "mpi-grep"

    def __init__(self, tokens, num_ranks, nbytes):
        self.chunks = np.array_split(tokens, num_ranks)
        self.nbytes = nbytes

    def input_bytes(self):
        return self.nbytes

    def init_rank(self, rank, num_ranks, ctx):
        return {"data": self.chunks[rank], "matches": None}

    def superstep(self, step, rank, state, inbox, comm, ctx):
        if step == 0:
            data = state["data"]
            ctx.int_ops(GREP_MATCH_COST.int_ops * len(data))
            ctx.branch_ops(GREP_MATCH_COST.branch_ops * len(data))
            ctx.seq_read(f"mpi:grep:{rank}", len(data) * 8)
            state["matches"] = data[grep_mask(data)]
            if rank != 0:
                comm.send(0, state["matches"])
            return False
        return False


class GrepWorkload(_TextWorkload):
    """Workload 2: scan for a rare pattern, emit matches."""

    info = WorkloadInfo(
        name="Grep", scenario="Micro Benchmarks", app_type=OFFLINE,
        data_type="unstructured", data_source="text",
        stacks=ANALYTICS_STACKS, metric=DPS,
        input_description="32 x (1..32) GB data", workload_id=2,
    )

    def hadoop(self, prepared, ctx, cluster):
        file = Dfs().put("grep:input", prepared.payload.tokens, prepared.nbytes)
        result = MapReduceRuntime(cluster=cluster, ctx=ctx).run(_GrepJob(), file)
        return result.output_records, result.cost

    def spark(self, prepared, ctx, cluster):
        sc = SparkContext(cluster=cluster, ctx=ctx)
        file = Dfs().put("grep:input", prepared.payload.tokens, prepared.nbytes)
        rdd = sc.from_dfs(file).filter_mask(lambda p, c: grep_mask(p),
                                            cost=GREP_MATCH_COST)
        return rdd.count(), sc.cost

    def mpi(self, prepared, ctx, cluster):
        runtime = BspRuntime(cluster=cluster, ctx=ctx)
        bsp = runtime.run(_BspGrep(prepared.payload.tokens, runtime.num_ranks,
                                   prepared.nbytes))
        return sum(len(s["matches"]) for s in bsp.states), bsp.cost

    def check(self, prepared, output):
        expected = grep_count(prepared.payload.tokens)
        return {"matches": int(output), "expected": expected,
                "correct": int(output) == expected}


# ---------------------------------------------------------------------------
# WordCount
# ---------------------------------------------------------------------------

#: Per-token hash-count cost of WordCount on every stack (MPI writes it
#: uniformly: see ``_BspWordCount``).
WORDCOUNT_COST = OpCost(int_ops=32, branch_ops=9, rand_writes=1)


class _WordCountJob(SumByKeyJob):
    name = "wordcount"
    map_cost = WORDCOUNT_COST
    reduce_cost = OpCost(int_ops=10, branch_ops=3)
    intermediate_record_bytes = 16

    def working_bytes(self, input_nbytes):
        # The full-corpus vocabulary hash at paper scale (~192 MB).
        return 192 * 1024 * 1024

    def map_batch(self, split, ctx):
        return split.payload.astype(np.int64, copy=False), None


class _BspWordCount(BspProgram):
    name = "mpi-wordcount"

    def __init__(self, tokens, num_ranks, nbytes, vocab_size):
        self.chunks = np.array_split(tokens, num_ranks)
        self.nbytes = nbytes
        self.vocab_size = vocab_size

    def input_bytes(self):
        return self.nbytes

    def init_rank(self, rank, num_ranks, ctx):
        return {"data": self.chunks[rank], "counts": None}

    def superstep(self, step, rank, state, inbox, comm, ctx):
        num_ranks = comm.num_ranks
        if step == 0:
            data = state["data"]
            ctx.int_ops(WORDCOUNT_COST.int_ops * len(data))
            ctx.branch_ops(WORDCOUNT_COST.branch_ops * len(data))
            # Drift: uniform writes here, skewed (Zipf-hot) on MapReduce/Spark.
            ctx.rand_write(f"mpi:wc:{rank}", len(data))
            counts = np.bincount(data, minlength=self.vocab_size)
            # All-to-all: each rank owns a slice of the vocabulary.
            for dst, chunk in enumerate(np.array_split(counts, num_ranks)):
                comm.send(dst, chunk)
            return True
        if step == 1:
            if inbox:
                state["counts"] = np.sum(inbox, axis=0)
                ctx.int_ops(2 * sum(len(p) for p in inbox))
        return False


class WordCountWorkload(_TextWorkload):
    """Workload 3: count word occurrences."""

    info = WorkloadInfo(
        name="WordCount", scenario="Micro Benchmarks", app_type=OFFLINE,
        data_type="unstructured", data_source="text",
        stacks=ANALYTICS_STACKS, metric=DPS,
        input_description="32 x (1..32) GB data", workload_id=3,
    )

    def hadoop(self, prepared, ctx, cluster):
        file = Dfs().put("wc:input", prepared.payload.tokens, prepared.nbytes)
        result = MapReduceRuntime(cluster=cluster, ctx=ctx).run(
            _WordCountJob(), file
        )
        return (int(result.output_values.sum()), result.output_records), result.cost

    def spark(self, prepared, ctx, cluster):
        sc = SparkContext(cluster=cluster, ctx=ctx)
        file = Dfs().put("wc:input", prepared.payload.tokens, prepared.nbytes)
        rdd = sc.from_dfs(file).map_partitions(
            lambda p, c: (p.astype(np.int64), np.ones(len(p), dtype=np.int64)),
            cost=WORDCOUNT_COST,
        ).reduce_by_key(lambda values, starts: np.add.reduceat(values, starts))
        parts = rdd.collect()
        counted = int(sum(p[1].sum() for p in parts if len(p[0])))
        return (counted, int(sum(len(p[0]) for p in parts))), sc.cost

    def mpi(self, prepared, ctx, cluster):
        corpus = prepared.payload
        runtime = BspRuntime(cluster=cluster, ctx=ctx)
        bsp = runtime.run(_BspWordCount(
            corpus.tokens, runtime.num_ranks, prepared.nbytes,
            corpus.vocab_size,
        ))
        merged = np.concatenate(
            [s["counts"] for s in bsp.states if s["counts"] is not None]
        )
        return (int(merged.sum()), int((merged > 0).sum())), bsp.cost

    def check(self, prepared, output):
        counted, distinct = output
        total = prepared.payload.num_tokens
        return {"counted": counted, "total": total,
                "distinct": distinct, "correct": counted == total}
