"""Social-network workloads: Olio Server, K-means, Connected Components.

The social-network domain (Table 4) contributes the Olio online service
(Apache+MySQL), K-means clustering -- the suite's floating-point-heavy
offline workload -- and Connected Components over the undirected social
graph (Table 6 rows 14-16).
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
from repro.keyed import sort_group
from repro.mapreduce import Dfs, MapReduceJob, MapReduceRuntime, OpCost
from repro.mpi import BspProgram, BspRuntime
from repro.serving import OlioServer
from repro.spark import SparkContext
from repro.workloads import inputs
from repro.workloads.serving_front import ServerWorkload


# ---------------------------------------------------------------------------
# Olio Server (workload 14)
# ---------------------------------------------------------------------------

class OlioServerWorkload(ServerWorkload):
    """Online social-events serving; load swept 100 x (1..32) req/s."""

    info = WorkloadInfo(
        name="Olio Server", scenario="Social Network", app_type=ONLINE,
        data_type="unstructured", data_source="graph",
        stacks=("MySQL",), metric=RPS,
        input_description="100 x (1..32) req/s", workload_id=14,
    )
    default_stack = "mysql"

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        graph = inputs.social_graph_input(1, seed)
        server = OlioServer(graph, num_events=8000, seed=seed)
        return WorkloadInput(
            payload=server, nbytes=server.dataset_bytes(), scale=scale,
            details={"rate_rps": inputs.BASE_RPS * scale,
                     "users": server.num_users},
        )


# ---------------------------------------------------------------------------
# K-means (workload 15)
# ---------------------------------------------------------------------------

#: Input geometry lives with the other data sources in
#: :mod:`repro.workloads.inputs`; re-exported here for the cost models.
KMEANS_BASE_POINTS = inputs.KMEANS_BASE_POINTS
KMEANS_DIM = inputs.KMEANS_DIM
KMEANS_K = inputs.KMEANS_K


#: Points :func:`kmeans_assign` takes at a time: the three
#: ``(block, K, D)`` temporaries then stay cache-sized instead of 74 MB
#: each at 8x (192 000 x 6 x 8: 98 ms in one piece, 47-57 ms in blocks of
#: 512 to 16 384).
KMEANS_ASSIGN_BLOCK = 2048


def kmeans_assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid assignment (squared Euclidean)."""
    assign = np.empty(len(points), dtype=np.int64)
    for start in range(0, len(points), KMEANS_ASSIGN_BLOCK):
        block = points[start:start + KMEANS_ASSIGN_BLOCK]
        d2 = ((block[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        np.argmin(d2, axis=1, out=assign[start:start + KMEANS_ASSIGN_BLOCK])
    return assign


class _KmeansIterationJob(MapReduceJob):
    """One K-means iteration: assign points, sum per-cluster vectors."""

    name = "kmeans"
    #: Our points stand for 32 GB x scale of feature vectors.
    PAPER_BYTES_PER_SCALE = 32 << 30
    # Distance computation: 3 FP ops per (point, centroid, dim) -- by far
    # the most FP-intensive kernel in the suite, yet its int/fp ratio is
    # still ~10 because of framework bookkeeping (paper: Bayes min is 10,
    # K-means similar order).
    # Distance math is SIMD-packed (~0.5 FP instructions per scalar op);
    # per-dimension deserialization adds integer work -- together this
    # lands the int/fp ratio near the paper's suite minimum (~10).
    # The point cache's hot set (recently deserialized blocks) is ~4 MB
    # per baseline unit: it fits L3 at small scale and overflows it as
    # data grows -- the mechanism behind the paper's K-means L3 MPKI gap
    # (0.8 small -> 2.0 large, Figure 2).
    map_cost = OpCost(
        int_ops=18 + 30 * KMEANS_DIM,
        fp_ops=1.5 * KMEANS_DIM * KMEANS_K,
        branch_ops=KMEANS_K,
        rand_reads=4,
        hot_fraction=6e-5,
        hot_prob=0.88,
    )
    # Drift: Spark charges 2 centroid reads per point (4 here) at the
    # default skew.
    spark_cost = OpCost(int_ops=map_cost.int_ops, fp_ops=map_cost.fp_ops,
                        branch_ops=map_cost.branch_ops, rand_reads=2)
    reduce_cost = OpCost(int_ops=8, fp_ops=2 * KMEANS_DIM, branch_ops=2)
    intermediate_record_bytes = 8 * KMEANS_DIM + 8

    def __init__(self, centroids: np.ndarray):
        self.centroids = centroids
        self._sums = None
        self._counts = None

    def map_batch(self, split, ctx):
        points = split.payload
        assign = kmeans_assign(points, self.centroids)
        # Pre-aggregate within the split (combiner semantics): emit one
        # record per (cluster, dimension-sum); functional sums accumulate
        # on the job (the engine handles byte accounting from records).
        k = len(self.centroids)
        sums = np.zeros((k, points.shape[1]))
        np.add.at(sums, assign, points)
        counts = np.bincount(assign, minlength=k)
        self._sums = sums if self._sums is None else self._sums + sums
        self._counts = counts if self._counts is None else self._counts + counts
        return np.arange(k, dtype=np.int64), counts.astype(np.float64)

    def reduce_batch(self, keys, values, starts, ctx):
        return keys, np.add.reduceat(values, starts)

    def new_centroids(self) -> np.ndarray:
        counts = np.maximum(self._counts, 1)[:, None]
        return self._sums / counts

    def working_bytes(self, input_nbytes):
        scale = max(1, input_nbytes // (KMEANS_BASE_POINTS * KMEANS_DIM * 8))
        return self.PAPER_BYTES_PER_SCALE * scale


class KmeansWorkload(Workload):
    """Offline K-means clustering of user-feature vectors."""

    info = WorkloadInfo(
        name="K-means", scenario="Social Network", app_type=OFFLINE,
        data_type="unstructured", data_source="graph",
        stacks=("Hadoop", "Spark", "MPI"), metric=DPS,
        input_description="32GB x (1..32) data", workload_id=15,
    )

    def __init__(self, iterations: int = 3):
        if iterations < 1:
            raise ValueError("need at least one iteration")
        self.iterations = iterations

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        points = inputs.kmeans_points_input(scale, seed)
        return WorkloadInput(
            payload=points, nbytes=points.nbytes, scale=scale,
            details={"points": len(points), "dim": KMEANS_DIM, "k": KMEANS_K},
        )

    @staticmethod
    def _seed_centroids(points) -> np.ndarray:
        rng = np.random.default_rng(42)
        return points[rng.choice(len(points), KMEANS_K, replace=False)]

    def hadoop(self, prepared, ctx, cluster):
        points = prepared.payload
        centroids = self._seed_centroids(points)
        runtime = MapReduceRuntime(cluster=cluster, ctx=ctx)
        file = Dfs().put("kmeans:points", points, prepared.nbytes)
        ledger = CostLedger(cluster)
        for _ in range(self.iterations):
            job = _KmeansIterationJob(centroids)
            result = runtime.run(job, file)
            centroids = job.new_centroids()
            ledger.absorb(result.cost)
        return centroids, ledger.job

    def spark(self, prepared, ctx, cluster):
        points = prepared.payload
        centroids = self._seed_centroids(points)
        sc = SparkContext(cluster=cluster, ctx=ctx)
        file = Dfs().put("kmeans:points", points, prepared.nbytes)
        cached = sc.from_dfs(file).cache()
        for _ in range(self.iterations):
            state = {"sums": np.zeros_like(centroids),
                     "counts": np.zeros(KMEANS_K, dtype=np.int64)}

            def assign_partition(payload, c, centroids=centroids, state=state):
                assign = kmeans_assign(payload, centroids)
                np.add.at(state["sums"], assign, payload)
                state["counts"] += np.bincount(assign, minlength=KMEANS_K)
                return payload

            cached.map_partitions(
                assign_partition, cost=_KmeansIterationJob.spark_cost,
            ).count()
            centroids = state["sums"] / np.maximum(state["counts"], 1)[:, None]
        return centroids, sc.cost

    def mpi(self, prepared, ctx, cluster):
        points = prepared.payload
        centroids = self._seed_centroids(points)
        runtime = BspRuntime(cluster=cluster, ctx=ctx)
        program = _BspKmeans(points, prepared.nbytes, centroids, self.iterations)
        bsp = runtime.run(program)
        return bsp.states[0]["centroids"], bsp.cost

    def check(self, prepared, output):
        points = prepared.payload
        assign = kmeans_assign(points, output)
        # The squared residuals go into one array a block at a time and
        # are summed once: the same pairwise sum, over the same array, as
        # ``((points - output[assign]) ** 2).sum()``, without its three
        # full-size temporaries.
        residuals = np.empty(points.shape)
        for start in range(0, len(points), KMEANS_ASSIGN_BLOCK):
            block = slice(start, start + KMEANS_ASSIGN_BLOCK)
            np.subtract(points[block], output[assign[block]],
                        out=residuals[block])
        np.square(residuals, out=residuals)
        return {"iterations": self.iterations,
                "inertia": float(residuals.sum()),
                "k": KMEANS_K}


class _BspKmeans(BspProgram):
    """BSP K-means: local assign + allreduce of (sums, counts)."""

    name = "mpi-kmeans"

    def __init__(self, points, nbytes, centroids, iterations):
        self.points = points
        self.nbytes = nbytes
        self.initial = centroids
        self.iterations = iterations

    def input_bytes(self):
        return self.nbytes

    def init_rank(self, rank, num_ranks, ctx):
        chunk = np.array_split(self.points, num_ranks)[rank]
        return {"points": chunk, "centroids": self.initial.copy(),
                "iteration": 0}

    def superstep(self, step, rank, state, inbox, comm, ctx):
        k, dim = state["centroids"].shape
        if inbox:
            # Messages are flat [sums (k*dim), counts (k)] vectors.
            merged = np.sum(inbox, axis=0)
            sums = merged[:k * dim].reshape(k, dim)
            counts = merged[k * dim:]
            state["centroids"] = sums / np.maximum(counts, 1)[:, None]
            state["iteration"] += 1
            ctx.fp_ops(2 * merged.size)
        if state["iteration"] >= self.iterations:
            return False
        points = state["points"]
        ctx.touch(f"kmeans:pts:{rank}", points.nbytes)
        ctx.seq_read(f"kmeans:pts:{rank}", points.nbytes)
        ctx.fp_ops(1.5 * dim * k * len(points))
        ctx.int_ops((18 + 30 * dim) * len(points))
        ctx.branch_ops(k * len(points))
        assign = kmeans_assign(points, state["centroids"])
        sums = np.zeros((k, dim))
        np.add.at(sums, assign, points)
        counts = np.bincount(assign, minlength=k).astype(np.float64)
        packed = np.concatenate([sums.ravel(), counts])
        ring_bytes = 2.0 * packed.nbytes / comm.num_ranks
        for other in range(comm.num_ranks):
            comm.send(other, packed, wire_bytes=ring_bytes)
        return True


# ---------------------------------------------------------------------------
# Connected Components (workload 16)
# ---------------------------------------------------------------------------

def connected_components_reference(graph) -> np.ndarray:
    """Union-find reference labeling for verification."""
    parent = np.arange(graph.num_nodes, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    for src, dst in graph.edges.tolist():
        ra, rb = find(src), find(dst)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(i) for i in range(graph.num_nodes)], dtype=np.int64)


class _CcIterationJob(MapReduceJob):
    """One hash-min iteration: propagate minimum labels over edges."""

    name = "cc"
    # Label lookups follow degree skew: high-degree vertices are hot.
    map_cost = OpCost(int_ops=16, branch_ops=6, rand_reads=2,
                      hot_fraction=0.01, hot_prob=0.75)
    reduce_cost = OpCost(int_ops=8, branch_ops=3)
    intermediate_record_bytes = 16

    def __init__(self, labels: np.ndarray, paper_vertices: int = 1 << 15):
        self.labels = labels
        self.paper_vertices = paper_vertices

    def working_bytes(self, input_nbytes):
        return max(1 << 20, self.paper_vertices * 8)

    def map_batch(self, split, ctx):
        edges = split.payload
        src, dst = edges[:, 0], edges[:, 1]
        keys = np.concatenate([dst, src]).astype(np.int64)
        values = np.concatenate([self.labels[src], self.labels[dst]])
        return keys, values.astype(np.int64)

    def reduce_batch(self, keys, values, starts, ctx):
        return keys, np.minimum.reduceat(values, starts)


class _BspConnectedComponents(BspProgram):
    """BSP hash-min label propagation with vertex-range ownership."""

    name = "mpi-cc"

    def __init__(self, graph, num_ranks: int):
        self.indptr, self.indices = graph.symmetric_adjacency()
        self.num_nodes = graph.num_nodes
        bounds = np.linspace(0, self.num_nodes, num_ranks + 1).astype(np.int64)
        self.lo, self.hi = bounds[:-1], bounds[1:]
        self.nbytes = graph.nbytes

    def input_bytes(self):
        return self.nbytes

    def init_rank(self, rank, num_ranks, ctx):
        lo, hi = int(self.lo[rank]), int(self.hi[rank])
        return {"labels": np.arange(lo, hi, dtype=np.int64),
                "dirty": np.arange(lo, hi, dtype=np.int64)}

    def superstep(self, step, rank, state, inbox, comm, ctx):
        lo = int(self.lo[rank])
        if inbox:
            pairs = np.concatenate(inbox).reshape(-1, 2)
            nodes = pairs[:, 0] - lo
            proposed = pairs[:, 1]
            ctx.rand_write(f"cc:labels:{rank}", len(pairs))
            ctx.int_ops(8 * len(pairs))
            current = state["labels"][nodes]
            better = proposed < current
            changed_nodes = np.unique(nodes[better])
            np.minimum.at(state["labels"], nodes, proposed)
            state["dirty"] = changed_nodes + lo
        dirty = state["dirty"]
        state["dirty"] = np.empty(0, dtype=np.int64)
        if len(dirty) == 0:
            return False
        starts = self.indptr[dirty]
        stops = self.indptr[dirty + 1]
        total = int((stops - starts).sum())
        ctx.touch("cc:graph", self.indices.nbytes)
        ctx.rand_read("cc:graph", 2 * len(dirty) + total)
        ctx.int_ops(12 * total + 8 * len(dirty))
        ctx.branch_ops(4 * total)
        if total == 0:
            return True
        neighbor_chunks = [
            self.indices[a:b] for a, b in zip(starts.tolist(), stops.tolist())
        ]
        counts = stops - starts
        neighbors = np.concatenate(neighbor_chunks)
        labels = np.repeat(state["labels"][dirty - lo], counts)
        owners = np.searchsorted(self.hi, neighbors, side="right")
        owners, order = sort_group(owners)
        neighbors, labels = neighbors[order], labels[order]
        cuts = np.searchsorted(owners, np.arange(1, comm.num_ranks))
        for dst_rank, (n_chunk, l_chunk) in enumerate(
            zip(np.split(neighbors, cuts), np.split(labels, cuts))
        ):
            if len(n_chunk):
                comm.send(dst_rank, np.column_stack([n_chunk, l_chunk]).ravel())
        return True


class ConnectedComponentsWorkload(Workload):
    """Offline connected components of the scaled social graph."""

    info = WorkloadInfo(
        name="Connected Components", scenario="Social Network",
        app_type=OFFLINE, data_type="unstructured", data_source="graph",
        stacks=("Hadoop", "Spark", "MPI"), metric=DPS,
        input_description="2^15 x (1..32) vertices", workload_id=16,
    )

    #: Cap on hash-min iterations for the Hadoop/Spark paths.
    MAX_ITERATIONS = 25

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        graph = inputs.social_graph_input(scale, seed)
        return WorkloadInput(
            payload=graph, nbytes=graph.nbytes, scale=scale,
            details={"nodes": graph.num_nodes, "edges": graph.num_edges},
        )

    def hadoop(self, prepared, ctx, cluster):
        graph = prepared.payload
        runtime = MapReduceRuntime(cluster=cluster, ctx=ctx)
        file = Dfs().put("cc:edges", graph.edges, prepared.nbytes)
        labels = np.arange(graph.num_nodes, dtype=np.int64)
        paper_vertices = (1 << 15) * max(1, graph.num_nodes // (1 << 13))
        ledger = CostLedger(cluster)
        for _ in range(self.MAX_ITERATIONS):
            job = _CcIterationJob(labels, paper_vertices=paper_vertices)
            result = runtime.run(job, file)
            ledger.absorb(result.cost)
            proposed = labels.copy()
            np.minimum.at(proposed, result.output_keys, result.output_values)
            if np.array_equal(proposed, labels):
                break
            labels = proposed
        return labels, ledger.job

    def spark(self, prepared, ctx, cluster):
        graph = prepared.payload
        sc = SparkContext(cluster=cluster, ctx=ctx)
        file = Dfs().put("cc:edges", graph.edges, prepared.nbytes)
        edges = sc.from_dfs(file).cache()
        labels = np.arange(graph.num_nodes, dtype=np.int64)
        for _ in range(self.MAX_ITERATIONS):
            current = labels

            def propose(payload, c, current=current):
                src, dst = payload[:, 0], payload[:, 1]
                keys = np.concatenate([dst, src]).astype(np.int64)
                values = np.concatenate([current[src], current[dst]])
                return keys, values.astype(np.int64)

            pairs = edges.map_partitions(
                propose, cost=OpCost(int_ops=16, branch_ops=6, rand_reads=2)
            ).reduce_by_key(lambda values, starts: np.minimum.reduceat(values, starts))
            proposed = labels.copy()
            for part in pairs.collect():
                keys, values = part
                np.minimum.at(proposed, keys, values)
            if np.array_equal(proposed, labels):
                break
            labels = proposed
        return labels, sc.cost

    def mpi(self, prepared, ctx, cluster):
        runtime = BspRuntime(cluster=cluster, ctx=ctx)
        bsp = runtime.run(_BspConnectedComponents(prepared.payload,
                                                  runtime.num_ranks))
        return np.concatenate([s["labels"] for s in bsp.states]), bsp.cost

    def check(self, prepared, output):
        # Two labelings describe the same partition iff the map between
        # them is one-to-one.
        reference = connected_components_reference(prepared.payload)
        pairs = np.unique(np.column_stack([output, reference]), axis=0)
        correct = (
            len(np.unique(pairs[:, 0])) == len(pairs)
            and len(np.unique(pairs[:, 1])) == len(pairs)
        )
        return {"components": int(len(np.unique(output))), "correct": correct}
