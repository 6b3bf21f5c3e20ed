"""BFS: breadth-first search over a scaled graph (Table 4, workload 4).

The only MPI-exclusive workload in the paper's experiments (Table 6:
2^15 x (1..32) vertices).  Implemented as a level-synchronous BSP
traversal with 1-D vertex partitioning -- the Graph500-style MPI
formulation.  BFS is the suite's random-access extreme: the paper
measures its DTLB MPKI at 14 and L2 MPKI at 56, the highest among the
analytics workloads.
"""

from __future__ import annotations

import numpy as np

from repro.core.workload import (
    DPS,
    OFFLINE,
    Workload,
    WorkloadInfo,
    WorkloadInput,
)
from repro.keyed import group_starts
from repro.mpi import BspProgram, BspRuntime
from repro.workloads import inputs


def _distinct(vertices: np.ndarray) -> np.ndarray:
    """Sorted distinct vertex ids: what ``np.unique`` returns, without
    the hash table numpy >= 2.3 builds before it sorts (8.5 M ids: 0.67 s
    against 0.08 s)."""
    return group_starts(np.sort(vertices))[0]


class _BspBfs(BspProgram):
    """Level-synchronous BFS with vertex ownership by range."""

    name = "mpi-bfs"

    def __init__(self, graph, num_ranks: int, paper_vertices: int, root: int = 0):
        self.indptr, self.indices = graph.symmetric_adjacency()
        self.num_nodes = graph.num_nodes
        self.num_ranks = num_ranks
        self.root = root
        bounds = np.linspace(0, self.num_nodes, num_ranks + 1).astype(np.int64)
        self.lo = bounds[:-1]
        self.hi = bounds[1:]
        self.nbytes = graph.nbytes
        # Region sizes at paper scale: 2^15 x scale vertices with the
        # functional graph's average degree.
        avg_degree = max(1.0, 2.0 * graph.num_edges / max(1, graph.num_nodes))
        self.paper_vertices = paper_vertices
        self.paper_graph_bytes = int(paper_vertices * avg_degree * 8)
        self.paper_level_bytes = max(64, paper_vertices * 8 // num_ranks)

    def input_bytes(self):
        return self.nbytes

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.hi, vertices, side="right")

    def init_rank(self, rank, num_ranks, ctx):
        size = int(self.hi[rank] - self.lo[rank])
        level = np.full(size, -1, dtype=np.int64)
        frontier = np.empty(0, dtype=np.int64)
        if self.lo[rank] <= self.root < self.hi[rank]:
            level[self.root - self.lo[rank]] = 0
            frontier = np.array([self.root], dtype=np.int64)
        return {"level": level, "frontier": frontier}

    def superstep(self, step, rank, state, inbox, comm, ctx):
        # Absorb newly discovered vertices owned by this rank.
        if inbox:
            incoming = _distinct(np.concatenate(inbox))
            local = incoming - self.lo[rank]
            fresh = local[state["level"][local] < 0]
            state["level"][fresh] = step
            state["frontier"] = fresh + self.lo[rank]
            ctx.touch(f"bfs:level:{rank}", self.paper_level_bytes)
            ctx.rand_write(f"bfs:level:{rank}", len(incoming))
            ctx.int_ops(24 * len(incoming))
            ctx.branch_ops(8 * len(incoming))
        frontier = state["frontier"]
        state["frontier"] = np.empty(0, dtype=np.int64)
        if len(frontier) == 0:
            return False

        # Expand: gather all neighbors of the frontier (random access into
        # the CSR arrays -- the workload's signature pattern).
        starts = self.indptr[frontier]
        stops = self.indptr[frontier + 1]
        degrees = stops - starts
        total = int(degrees.sum())
        ctx.touch("bfs:graph", self.paper_graph_bytes)
        ctx.rand_read("bfs:graph", len(frontier) * 2 + total)
        ctx.touch(f"bfs:visited:{rank}", max(64, self.paper_level_bytes // 8))
        ctx.rand_read(f"bfs:visited:{rank}", total)  # visited-bitmap probes
        ctx.int_ops(42 * total + 60 * len(frontier))
        ctx.branch_ops(14 * total)
        ctx.fp_ops(0.35 * total)
        if total == 0:
            return True
        neighbor_chunks = [
            self.indices[a:b] for a, b in zip(starts.tolist(), stops.tolist())
        ]
        neighbors = _distinct(np.concatenate(neighbor_chunks))
        owners = self.owner_of(neighbors)
        for dst in range(self.num_ranks):
            chunk = neighbors[owners == dst]
            if len(chunk):
                comm.send(int(dst), chunk)
        return True


class BfsWorkload(Workload):
    """Workload 4: BFS from vertex 0 (MPI only, as in Table 6)."""

    info = WorkloadInfo(
        name="BFS", scenario="Micro Benchmarks", app_type=OFFLINE,
        data_type="unstructured", data_source="graph",
        stacks=("MPI",), metric=DPS,
        input_description="2^15 x (1..32) vertices", workload_id=4,
    )
    default_stack = "mpi"

    def prepare(self, scale: int, seed: int = 0) -> WorkloadInput:
        self.check_scale(scale)
        graph = inputs.social_graph_input(scale, seed)
        return WorkloadInput(
            payload=graph, nbytes=graph.nbytes, scale=scale,
            details={"nodes": graph.num_nodes, "edges": graph.num_edges},
        )

    def mpi(self, prepared, ctx, cluster):
        runtime = BspRuntime(cluster=cluster, ctx=ctx)
        program = _BspBfs(prepared.payload, runtime.num_ranks,
                          paper_vertices=(1 << 15) * prepared.scale)
        bsp = runtime.run(program)
        return bsp, bsp.cost

    def check(self, prepared, output):
        levels = np.concatenate([s["level"] for s in output.states])
        return {"reached": int((levels >= 0).sum()),
                "supersteps": output.supersteps,
                "max_level": int(levels.max())}
