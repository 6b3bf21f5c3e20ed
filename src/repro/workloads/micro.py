"""Micro benchmarks: Sort, Grep, WordCount (Table 4, workloads 1-3).

Offline analytics over unstructured text, available on all three
analytics stacks (Hadoop MapReduce, Spark, MPI).  These are the
fundamental operations the paper includes "since they are fundamental
and widely used"; Grep is the extreme of the suite's integer-dominance
(int/fp ratio 179, the maximum in Figure 4).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.node import ClusterSpec, PAPER_CLUSTER
from repro.cluster.timemodel import JobCost, PhaseCost
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
    WorkloadResult,
)
from repro.mpi import BspProgram, BspRuntime
from repro.spark import SparkContext
from repro.uarch.perfctx import context_or_null
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

    def _result(self, prepared, stack, cost, cluster, details) -> WorkloadResult:
        return WorkloadResult(
            workload=self.info.name,
            stack=stack,
            scale=prepared.scale,
            input_bytes=prepared.nbytes,
            cost=cost,
            metric_name=DPS,
            metric_value=self.dps(prepared.nbytes, cost, cluster),
            details=details,
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

    def record_count(self, split):
        return len(split.payload)

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

    def run(self, prepared, ctx=None, cluster: ClusterSpec = PAPER_CLUSTER,
            stack: str = None) -> WorkloadResult:
        stack = self.check_stack(stack)
        ctx = context_or_null(ctx)
        corpus = prepared.payload
        if stack == "hadoop":
            file = Dfs().put("sort:input", corpus.tokens, prepared.nbytes)
            result = MapReduceRuntime(cluster=cluster, ctx=ctx).run(_SortJob(), file)
            sorted_ok = bool(np.all(np.diff(result.output_keys) >= 0))
            return self._result(prepared, stack, result.cost, cluster,
                                {"sorted": sorted_ok,
                                 "records": result.output_records})
        if stack == "spark":
            sc = SparkContext(cluster=cluster, ctx=ctx)
            file = Dfs().put("sort:input", corpus.tokens, prepared.nbytes)
            parts = sc.from_dfs(file).sort_by_key().collect()
            flat = np.concatenate(parts) if parts else np.empty(0)
            return self._result(prepared, stack, sc.cost, cluster,
                                {"sorted": bool(np.all(np.diff(flat) >= 0)),
                                 "records": int(len(flat))})
        # MPI sample sort.
        runtime = BspRuntime(cluster=cluster, ctx=ctx)
        program = _BspSampleSort(corpus.tokens, runtime.num_ranks, prepared.nbytes)
        bsp = runtime.run(program)
        merged = np.concatenate(
            [s["sorted"] for s in bsp.states if s["sorted"] is not None]
        )
        return self._result(prepared, stack, bsp.cost, cluster,
                            {"sorted": bool(np.all(np.diff(merged) >= 0)),
                             "records": int(len(merged))})


# ---------------------------------------------------------------------------
# Grep
# ---------------------------------------------------------------------------

#: Pattern-match congruence: word ids ``= 123 (mod 499)``.  Skipping the
#: Zipf head keeps matches rare (~0.2% of tokens), like a real grep for
#: an uncommon string.
GREP_MODULUS = 499
GREP_REMAINDER = 123


def grep_mask(tokens: np.ndarray) -> np.ndarray:
    return tokens % GREP_MODULUS == GREP_REMAINDER


class _GrepJob(MapReduceJob):
    name = "grep"
    group_by_key = False
    # Byte-wise pattern matching: the most integer/branch-heavy kernel in
    # the suite (paper: int/fp ratio 179, MIPS keeps rising to 32x).
    map_cost = OpCost(int_ops=95, branch_ops=38)
    reduce_cost = OpCost(int_ops=4, branch_ops=1)
    intermediate_record_bytes = 60

    def record_count(self, split):
        return len(split.payload)

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
            ctx.int_ops(95 * len(data))
            ctx.branch_ops(38 * len(data))
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

    def run(self, prepared, ctx=None, cluster: ClusterSpec = PAPER_CLUSTER,
            stack: str = None) -> WorkloadResult:
        stack = self.check_stack(stack)
        ctx = context_or_null(ctx)
        corpus = prepared.payload
        expected = int(grep_mask(corpus.tokens).sum())
        if stack == "hadoop":
            file = Dfs().put("grep:input", corpus.tokens, prepared.nbytes)
            result = MapReduceRuntime(cluster=cluster, ctx=ctx).run(_GrepJob(), file)
            found = result.output_records
            cost = result.cost
        elif stack == "spark":
            sc = SparkContext(cluster=cluster, ctx=ctx)
            file = Dfs().put("grep:input", corpus.tokens, prepared.nbytes)
            rdd = sc.from_dfs(file).filter_mask(
                lambda p, c: grep_mask(p),
                cost=OpCost(int_ops=95, branch_ops=38),
            )
            found = rdd.count()
            cost = sc.cost
        else:
            runtime = BspRuntime(cluster=cluster, ctx=ctx)
            bsp = runtime.run(_BspGrep(corpus.tokens, runtime.num_ranks,
                                       prepared.nbytes))
            found = sum(len(s["matches"]) for s in bsp.states)
            cost = bsp.cost
        return self._result(prepared, stack, cost, cluster,
                            {"matches": int(found), "expected": expected,
                             "correct": int(found) == expected})


# ---------------------------------------------------------------------------
# WordCount
# ---------------------------------------------------------------------------

class _WordCountJob(SumByKeyJob):
    name = "wordcount"
    map_cost = OpCost(int_ops=32, branch_ops=9, rand_writes=1)
    reduce_cost = OpCost(int_ops=10, branch_ops=3)
    intermediate_record_bytes = 16

    def working_bytes(self, input_nbytes):
        # The full-corpus vocabulary hash at paper scale (~192 MB).
        return 192 * 1024 * 1024

    def record_count(self, split):
        return len(split.payload)

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
            ctx.int_ops(32 * len(data))
            ctx.branch_ops(9 * len(data))
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

    def run(self, prepared, ctx=None, cluster: ClusterSpec = PAPER_CLUSTER,
            stack: str = None) -> WorkloadResult:
        stack = self.check_stack(stack)
        ctx = context_or_null(ctx)
        corpus = prepared.payload
        total = corpus.num_tokens
        if stack == "hadoop":
            file = Dfs().put("wc:input", corpus.tokens, prepared.nbytes)
            result = MapReduceRuntime(cluster=cluster, ctx=ctx).run(
                _WordCountJob(), file
            )
            counted = int(result.output_values.sum())
            distinct = result.output_records
            cost = result.cost
        elif stack == "spark":
            sc = SparkContext(cluster=cluster, ctx=ctx)
            file = Dfs().put("wc:input", corpus.tokens, prepared.nbytes)
            rdd = sc.from_dfs(file).map_partitions(
                lambda p, c: (p.astype(np.int64), np.ones(len(p), dtype=np.int64)),
                cost=OpCost(int_ops=32, branch_ops=9, rand_writes=1),
            ).reduce_by_key(lambda values, starts: np.add.reduceat(values, starts))
            parts = rdd.collect()
            counted = int(sum(p[1].sum() for p in parts if len(p[0])))
            distinct = int(sum(len(p[0]) for p in parts))
            cost = sc.cost
        else:
            runtime = BspRuntime(cluster=cluster, ctx=ctx)
            bsp = runtime.run(_BspWordCount(
                corpus.tokens, runtime.num_ranks, prepared.nbytes,
                corpus.vocab_size,
            ))
            merged = np.concatenate(
                [s["counts"] for s in bsp.states if s["counts"] is not None]
            )
            counted = int(merged.sum())
            distinct = int((merged > 0).sum())
            cost = bsp.cost
        return self._result(prepared, stack, cost, cluster,
                            {"counted": counted, "total": total,
                             "distinct": distinct, "correct": counted == total})
