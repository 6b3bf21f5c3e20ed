"""Search-engine workloads: Nutch Server, Index, PageRank (Table 4).

The search-engine application domain contributes one online service
(Nutch-like query serving, swept by request rate) and two offline
analytics jobs over pages and the web graph (Index and PageRank, swept
by page count -- Table 6 rows 11-13).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.ledger import CostLedger
from repro.core.workload import (
    DPS,
    OFFLINE,
    ONLINE,
    RPS,
    Workload,
    WorkloadInfo,
    WorkloadInput,
)
from repro.mapreduce import Dfs, MapReduceJob, MapReduceRuntime, OpCost
from repro.mpi import BspProgram, BspRuntime
from repro.serving import NutchServer
from repro.spark import SparkContext
from repro.workloads import inputs
from repro.workloads.serving_front import ServerWorkload


# ---------------------------------------------------------------------------
# Nutch Server (workload 11)
# ---------------------------------------------------------------------------

class NutchServerWorkload(ServerWorkload):
    """Online search serving; load swept 100 x (1..32) req/s."""

    info = WorkloadInfo(
        name="Nutch Server", scenario="Search Engine", app_type=ONLINE,
        data_type="unstructured", data_source="text",
        stacks=("Hadoop",), metric=RPS,
        input_description="100 x (1..32) req/s", workload_id=11,
    )

    #: Fixed index size (the sweep varies request rate, not data).
    INDEX_PAGES_SCALE = 2
    SAMPLE_REQUESTS = 600

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        corpus = inputs.pages_input(self.INDEX_PAGES_SCALE, seed)
        server = NutchServer(corpus)
        return WorkloadInput(
            payload=server, nbytes=server.dataset_bytes(), scale=scale,
            details={"rate_rps": inputs.BASE_RPS * scale,
                     "pages": corpus.num_docs},
        )


# ---------------------------------------------------------------------------
# Index (workload 13)
# ---------------------------------------------------------------------------

class _IndexJob(MapReduceJob):
    """Build an inverted index: (word, doc) pairs grouped into postings."""

    name = "index"
    map_cost = OpCost(int_ops=42, branch_ops=12, rand_writes=1)
    reduce_cost = OpCost(int_ops=14, branch_ops=4)
    intermediate_record_bytes = 16

    def working_bytes(self, input_nbytes):
        # Dictionary plus posting buffers at paper scale.
        return 256 * 1024 * 1024

    def map_batch(self, split, ctx):
        pairs = split.payload  # (n, 2): word id, doc id
        return pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)

    def reduce_batch(self, keys, values, starts, ctx):
        # Posting list lengths per word (the lists themselves stay in the
        # grouped value runs; length is the functional check).
        counts = np.diff(np.append(starts, len(values)))
        return keys, counts.astype(np.int64)

    def output_bytes(self, input_nbytes, counters):
        return int(counters.get("map_output_records") * 10)


class IndexWorkload(Workload):
    """Offline indexing of 10^6 x (1..32) pages (scaled)."""

    info = WorkloadInfo(
        name="Index", scenario="Search Engine", app_type=OFFLINE,
        data_type="unstructured", data_source="text",
        stacks=("Hadoop",), metric=DPS,
        input_description="10^6 x (1..32) pages", workload_id=13,
    )

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        corpus = inputs.pages_input(scale, seed)
        doc_ids = np.repeat(
            np.arange(corpus.num_docs, dtype=np.int64), corpus.doc_lengths()
        )
        pairs = np.column_stack([corpus.tokens, doc_ids])
        return WorkloadInput(
            payload=pairs, nbytes=corpus.nbytes, scale=scale,
            details={"pages": corpus.num_docs, "tokens": corpus.num_tokens,
                     "vocab": corpus.vocab_size},
        )

    def hadoop(self, prepared, ctx, cluster):
        file = Dfs().put("index:input", prepared.payload, prepared.nbytes)
        result = MapReduceRuntime(cluster=cluster, ctx=ctx).run(_IndexJob(), file)
        return result, result.cost

    def check(self, prepared, output):
        postings_total = int(output.output_values.sum())
        return {"postings": postings_total,
                "tokens": prepared.details["tokens"],
                "distinct_words": output.output_records,
                "correct": postings_total == prepared.details["tokens"]}


# ---------------------------------------------------------------------------
# PageRank (workload 12)
# ---------------------------------------------------------------------------

DAMPING = 0.85


def pagerank_reference(graph, iterations: int) -> np.ndarray:
    """Dense-iteration reference implementation for verification."""
    n = graph.num_nodes
    ranks = np.full(n, 1.0 / n)
    out_deg = np.maximum(graph.out_degrees(), 1)
    src = graph.edges[:, 0]
    dst = graph.edges[:, 1]
    for _ in range(iterations):
        contrib = ranks[src] / out_deg[src]
        incoming = np.bincount(dst, weights=contrib, minlength=n)
        dangling = ranks[graph.out_degrees() == 0].sum()
        ranks = (1 - DAMPING) / n + DAMPING * (incoming + dangling / n)
    return ranks


#: Integer ops per edge of the rank contribution on MapReduce and Spark.
PAGERANK_EDGE_INT_OPS = 14
#: Drift: MPI charges 30 int ops per edge where MapReduce and Spark charge 14.
PAGERANK_MPI_EDGE_INT_OPS = 30


class _PageRankIterationJob(MapReduceJob):
    """One PageRank iteration: edges -> (dst, contribution) -> sums."""

    name = "pagerank"
    # Rank-vector accesses follow the in-degree skew: popular pages hot.
    map_cost = OpCost(int_ops=PAGERANK_EDGE_INT_OPS, fp_ops=2, branch_ops=3,
                      rand_reads=2, hot_fraction=0.01, hot_prob=0.8)
    reduce_cost = OpCost(int_ops=8, fp_ops=2, branch_ops=2)
    intermediate_record_bytes = 16

    def __init__(self, ranks: np.ndarray, out_deg: np.ndarray,
                 paper_nodes: int = 1_000_000):
        self.ranks = ranks
        self.out_deg = out_deg
        self.paper_nodes = paper_nodes

    def map_batch(self, split, ctx):
        edges = split.payload
        src = edges[:, 0]
        contrib = self.ranks[src] / self.out_deg[src]
        return edges[:, 1].astype(np.int64), contrib

    def reduce_batch(self, keys, values, starts, ctx):
        return keys, np.add.reduceat(values, starts)

    def working_bytes(self, input_nbytes):
        # Rank + degree vectors at paper scale: 10^6 x scale pages.
        return self.paper_nodes * 16


class PageRankWorkload(Workload):
    """Offline PageRank over the scaled web graph."""

    info = WorkloadInfo(
        name="PageRank", scenario="Search Engine", app_type=OFFLINE,
        data_type="unstructured", data_source="graph",
        stacks=("Hadoop", "Spark", "MPI"), metric=DPS,
        input_description="10^6 x (1..32) pages", workload_id=12,
    )

    def __init__(self, iterations: int = 3):
        if iterations < 1:
            raise ValueError("need at least one iteration")
        self.iterations = iterations

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        graph = inputs.web_graph_input(scale, seed)
        return WorkloadInput(
            payload=graph, nbytes=graph.nbytes, scale=scale,
            details={"nodes": graph.num_nodes, "edges": graph.num_edges},
        )

    def hadoop(self, prepared, ctx, cluster):
        graph = prepared.payload
        runtime = MapReduceRuntime(cluster=cluster, ctx=ctx)
        file = Dfs().put("pagerank:edges", graph.edges, prepared.nbytes)
        n = graph.num_nodes
        ranks = np.full(n, 1.0 / n)
        out_deg = np.maximum(graph.out_degrees(), 1)
        dangling_mask = graph.out_degrees() == 0
        ledger = CostLedger(cluster)
        paper_nodes = 1_000_000 * max(1, graph.num_nodes // 4096)
        for _ in range(self.iterations):
            job = _PageRankIterationJob(ranks, out_deg, paper_nodes=paper_nodes)
            result = runtime.run(job, file)
            incoming = np.zeros(n)
            incoming[result.output_keys] = result.output_values
            dangling = ranks[dangling_mask].sum()
            ranks = (1 - DAMPING) / n + DAMPING * (incoming + dangling / n)
            ledger.absorb(result.cost)
        return ranks, ledger.job

    def spark(self, prepared, ctx, cluster):
        graph = prepared.payload
        sc = SparkContext(cluster=cluster, ctx=ctx)
        file = Dfs().put("pagerank:edges", graph.edges, prepared.nbytes)
        edges = sc.from_dfs(file).cache()
        n = graph.num_nodes
        ranks = np.full(n, 1.0 / n)
        out_deg = np.maximum(graph.out_degrees(), 1)
        dangling_mask = graph.out_degrees() == 0
        for _ in range(self.iterations):
            current = ranks

            def contribs(payload, c, current=current):
                src, dst = payload[:, 0], payload[:, 1]
                return dst.astype(np.int64), current[src] / out_deg[src]

            pairs = edges.map_partitions(
                contribs, cost=OpCost(int_ops=PAGERANK_EDGE_INT_OPS, fp_ops=2,
                                      rand_reads=2)
            ).reduce_by_key(lambda values, starts: np.add.reduceat(values, starts))
            incoming = np.zeros(n)
            for part in pairs.collect():
                keys, values = part
                incoming[keys] = values
            dangling = ranks[dangling_mask].sum()
            ranks = (1 - DAMPING) / n + DAMPING * (incoming + dangling / n)
        return ranks, sc.cost

    def mpi(self, prepared, ctx, cluster):
        runtime = BspRuntime(cluster=cluster, ctx=ctx)
        program = _BspMpiPageRank(prepared.payload, runtime.num_ranks,
                                  self.iterations)
        bsp = runtime.run(program)
        return bsp.states[0]["ranks"], bsp.cost

    def check(self, prepared, output):
        reference = pagerank_reference(prepared.payload, self.iterations)
        max_err = float(np.max(np.abs(output - reference)))
        return {"iterations": self.iterations, "max_error": max_err,
                "rank_sum": float(output.sum()),
                "correct": max_err < 1e-9}


class _BspMpiPageRank(BspProgram):
    """BSP PageRank: each rank owns an edge shard and reduces partials.

    Every rank computes partial incoming sums from its edge shard, then
    the partials are all-reduced (sent to every rank) so each rank holds
    the full updated rank vector -- the common MPI_Allreduce structure.
    Dangling mass is redistributed uniformly each iteration.
    """

    name = "mpi-pagerank"

    def __init__(self, graph, num_ranks: int, iterations: int):
        self.iterations = iterations
        self.num_nodes = graph.num_nodes
        self.edge_chunks = np.array_split(graph.edges, num_ranks)
        self.out_degrees = graph.out_degrees()
        self.out_deg = np.maximum(self.out_degrees, 1)
        self.nbytes = graph.nbytes

    def input_bytes(self):
        return self.nbytes

    def init_rank(self, rank, num_ranks, ctx):
        return {"ranks": np.full(self.num_nodes, 1.0 / self.num_nodes),
                "iteration": 0}

    def superstep(self, step, rank, state, inbox, comm, ctx):
        if inbox:
            incoming = np.sum(inbox, axis=0)
            dangling = state["ranks"][self.out_degrees == 0].sum()
            state["ranks"] = (
                (1 - DAMPING) / self.num_nodes
                + DAMPING * (incoming + dangling / self.num_nodes)
            )
            state["iteration"] += 1
            ctx.fp_ops(3 * self.num_nodes)
        if state["iteration"] >= self.iterations:
            return False
        edges = self.edge_chunks[rank]
        src, dst = edges[:, 0], edges[:, 1]
        ctx.touch(f"pr:state:{rank}", self.num_nodes * 16)
        ctx.rand_read(f"pr:state:{rank}", 2 * len(edges))
        ctx.fp_ops(2 * len(edges))
        ctx.int_ops(PAGERANK_MPI_EDGE_INT_OPS * len(edges)
                    + 20 * self.num_nodes / comm.num_ranks)
        ctx.branch_ops(8 * len(edges))
        contrib = state["ranks"][src] / self.out_deg[src]
        partial = np.bincount(dst, weights=contrib, minlength=self.num_nodes)
        # Ring all-reduce: each rank moves ~2/N of the vector per peer.
        ring_bytes = 2.0 * partial.nbytes / comm.num_ranks
        for other in range(comm.num_ranks):
            comm.send(other, partial, wire_bytes=ring_bytes)
        return True
