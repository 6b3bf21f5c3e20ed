"""Graph data: structures, seed generators, and the BDGS Kronecker model.

Graph data is the dominant source in social networks (Section 4.1); the
suite uses a directed web graph (PageRank), an undirected social graph
(Connected Components), and vertex-set-scaled graphs for BFS and
Collaborative Filtering.  BDGS scales graph seeds with a stochastic
Kronecker model whose initiator is *estimated* from the seed -- here a
simplified KronFit that matches edge density exactly and degree skew by
moment matching (documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.models import fit_degree_powerlaw
from repro.keyed import (
    GUIDE_CHUNK,
    bincount,
    group_starts,
    sort_group,
    stable_order,
)


@dataclass
class Graph:
    """An edge-list graph with lazily built CSR adjacency."""

    edges: np.ndarray           # (m, 2) int64 [src, dst]
    num_nodes: int
    directed: bool = True

    def __post_init__(self) -> None:
        if self.edges.ndim != 2 or self.edges.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array")
        if self.edges.size and int(self.edges.max()) >= self.num_nodes:
            raise ValueError("edge endpoint exceeds num_nodes")
        self._csr = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def out_degrees(self) -> np.ndarray:
        return bincount(self.edges[:, 0], minlength=self.num_nodes)

    def in_degrees(self) -> np.ndarray:
        return bincount(self.edges[:, 1], minlength=self.num_nodes)

    def degrees(self) -> np.ndarray:
        """Total degree (undirected view: both endpoints count)."""
        return self.out_degrees() + self.in_degrees()

    def adjacency(self) -> "tuple[np.ndarray, np.ndarray]":
        """CSR over outgoing edges: (indptr, indices)."""
        if self._csr is None:
            self._csr = self._csr_of(((0, 1),))
        return self._csr

    def symmetric_adjacency(self) -> "tuple[np.ndarray, np.ndarray]":
        """CSR with both edge directions, for undirected traversals: the
        adjacency of the edge list followed by its reverse, built from
        this one edge list (not cached: each traversal holds its own)."""
        return self._csr_of(((0, 1), (1, 0)))

    def _csr_of(self, directions: tuple) -> "tuple[np.ndarray, np.ndarray]":
        """CSR of the edge lists ``edges[:, [s, t]]`` for ``(s, t)`` in
        ``directions``, one after the other: each vertex's neighbours in
        the order a stable sort of the concatenated sources leaves them.

        A counting build: the degrees give every vertex its slots, and
        the edges are placed one chunk at a time -- a chunk's records
        take their vertex's next free slots in chunk order (a stable
        sort of the chunk ranks them).  It allocates the CSR and one
        chunk of temporaries, never the concatenated edge list.
        """
        columns = [(self.edges[:, s], self.edges[:, t]) for s, t in directions]
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        for sources, _ in columns:
            counts += bincount(sources, minlength=self.num_nodes)
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        free = indptr[:-1].copy()       # next unused slot of every vertex
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for sources, targets in columns:
            for start in range(0, len(sources), GUIDE_CHUNK):
                stop = start + GUIDE_CHUNK
                keys, order = sort_group(sources[start:stop])
                vertices, starts = group_starts(keys)
                runs = np.diff(starts, append=keys.size)
                slots = np.arange(keys.size) - np.repeat(starts, runs)
                slots += free[keys]
                indices[slots] = targets[start:stop][order]
                free[vertices] += runs
        return indptr, indices

    @property
    def nbytes(self) -> int:
        """Serialized edge-list size (two ~10-byte decimal fields + sep)."""
        return self.num_edges * 21

    def to_arrays(self) -> "tuple[dict, dict]":
        """Array codec (see :mod:`repro.core.store`)."""
        return ({"num_nodes": int(self.num_nodes),
                 "directed": bool(self.directed)},
                {"edges": self.edges})

    @classmethod
    def from_arrays(cls, meta: dict, arrays: dict) -> "Graph":
        """Rebuild from codec output; ``edges`` may be a read-only memmap."""
        return cls(edges=arrays["edges"], num_nodes=int(meta["num_nodes"]),
                   directed=bool(meta["directed"]))


def _first_edges(keys: np.ndarray, num_nodes: int) -> np.ndarray:
    """The ``(m, 2)`` edges of the int64 keys ``src * num_nodes + dst``
    (``-1`` for a self-loop): the first occurrence of every distinct edge
    that is not a self-loop, in input order.

    One stable sort of the keys finds the first occurrences (a self-loop
    group, if any, sorts first and is dropped); their positions are then
    sorted, and the kept keys decoded into the edges.  Every array is
    dropped once read, so a caller that passes its only reference to
    ``keys`` gets it freed once it is sorted.
    """
    sorted_keys, order = sort_group(keys)
    del keys
    distinct, starts = group_starts(sorted_keys)
    del sorted_keys
    if distinct.size and distinct[0] < 0:
        distinct, starts = distinct[1:], starts[1:]
    first = order[starts]
    del order, starts
    # Distinct positions: their stable order is their only order.
    kept = distinct[stable_order(first)]
    del distinct, first
    edges = np.empty((kept.size, 2), dtype=np.int64)
    np.divmod(kept, num_nodes, out=(edges[:, 0], edges[:, 1]))
    return edges


def preferential_attachment(
    num_nodes: int,
    edges_per_node: int,
    rng: np.random.Generator,
    directed: bool = True,
) -> Graph:
    """Barabasi-Albert-style generator used to build graph *seeds*.

    Seeds are intentionally produced by a different mechanism than the
    Kronecker model BDGS fits, so the estimate-then-generate pipeline is
    exercised honestly.

    Vectorized: nodes attach in chunks against an endpoint pool frozen
    at each chunk boundary (sampling uniformly from the pool is
    degree-proportional), so the per-node Python loop and per-draw set
    bookkeeping collapse into batched fanout draws with rejection-based
    dedup.  Within a chunk the pool does not see the chunk's own
    additions -- the standard batched-BA approximation; the degree
    distribution keeps its heavy tail and every node still contributes
    exactly ``min(edges_per_node, node)`` edges.
    """
    if num_nodes < 2 or edges_per_node < 1:
        raise ValueError("need at least 2 nodes and 1 edge per node")
    k = int(edges_per_node)
    # Total pool length: node 0, plus per later node its targets + itself.
    total_edges = sum(min(k, node) for node in range(1, num_nodes))
    pool = np.empty(1 + (num_nodes - 1) + total_edges, dtype=np.int64)
    pool[0] = 0
    pool_len = 1
    sources = np.empty(total_edges, dtype=np.int64)
    targets = np.empty(total_edges, dtype=np.int64)
    edge_at = 0

    def _append(node_ids: np.ndarray, node_targets: np.ndarray) -> None:
        nonlocal pool_len, edge_at
        count = len(node_ids)
        sources[edge_at:edge_at + count] = node_ids
        targets[edge_at:edge_at + count] = node_targets
        pool[pool_len:pool_len + count] = node_targets
        pool_len += count
        edge_at += count

    # Warm-up: nodes 1..k attach to *all* earlier nodes one at a time
    # (their fanout is capped by the pool anyway, and dedup against a
    # nearly full pool is where rejection sampling degenerates).
    warmup_end = min(num_nodes, k + 1)
    for node in range(1, warmup_end):
        fanout = min(k, node)
        chosen: set = set()
        while len(chosen) < fanout:
            pick = int(pool[int(rng.integers(0, pool_len))])
            if pick != node:
                chosen.add(pick)
        picks = np.fromiter(chosen, dtype=np.int64, count=fanout)
        _append(np.full(fanout, node, dtype=np.int64), picks)
        pool[pool_len] = node
        pool_len += 1

    # Batched phase: every remaining node draws exactly k targets.
    chunk = 256
    for lo in range(warmup_end, num_nodes, chunk):
        hi = min(lo + chunk, num_nodes)
        nodes = np.arange(lo, hi, dtype=np.int64)
        rows = len(nodes)
        frozen = pool[:pool_len]
        picks = np.empty((rows, k), dtype=np.int64)
        for slot in range(k):
            # Draw slot ``slot`` for every row; redraw rows whose pick
            # is a self-loop or repeats an earlier slot of the same row.
            pending = np.arange(rows)
            while pending.size:
                draw = frozen[rng.integers(0, pool_len, size=pending.size)]
                picks[pending, slot] = draw
                bad = draw == nodes[pending]
                if slot:
                    bad |= (picks[pending, :slot] == draw[:, None]).any(axis=1)
                pending = pending[bad]
        _append(np.repeat(nodes, k), picks.reshape(-1))
        pool[pool_len:pool_len + rows] = nodes
        pool_len += rows

    edges = np.column_stack([sources, targets])
    return Graph(edges=edges, num_nodes=num_nodes, directed=directed)


@dataclass(frozen=True)
class KroneckerModel:
    """Stochastic Kronecker graph model with a 2x2 initiator.

    ``initiator`` entries are expected edge counts per quadrant and need
    not sum to one; ``iterations`` doublings give ``2**iterations`` nodes
    and ``initiator.sum() ** iterations`` expected edges.
    """

    initiator: "tuple[tuple[float, float], tuple[float, float]]"
    iterations: int

    def __post_init__(self) -> None:
        flat = [x for row in self.initiator for x in row]
        if any(x < 0 for x in flat) or sum(flat) <= 0:
            raise ValueError("initiator entries must be non-negative, sum > 0")
        if self.iterations < 1:
            raise ValueError("need at least one Kronecker iteration")

    @property
    def num_nodes(self) -> int:
        return 1 << self.iterations

    @property
    def expected_edges(self) -> float:
        flat = [x for row in self.initiator for x in row]
        return float(sum(flat)) ** self.iterations

    @classmethod
    def estimate(cls, graph: Graph, iterations: int = None) -> "KroneckerModel":
        """Simplified KronFit by moment matching.

        Matches (1) the edge count exactly via the initiator sum, and
        (2) the degree skew via the variance of log out-degree: for a
        stochastic Kronecker graph, ``Var[log deg] ~ k/4 * (log r1/r2)^2``
        where ``r1``/``r2`` are the initiator row sums.
        """
        if graph.num_edges == 0:
            raise ValueError("cannot fit a Kronecker model to an empty graph")
        if iterations is None:
            iterations = max(1, int(np.ceil(np.log2(max(2, graph.num_nodes)))))
        total = graph.num_edges ** (1.0 / iterations)

        degrees = graph.out_degrees().astype(np.float64)
        degrees = degrees[degrees > 0]
        log_var = float(np.var(np.log(degrees))) if degrees.size > 1 else 0.0
        # Solve |log(r1/r2)| = 2*sqrt(var/k); cap the ratio for stability.
        log_ratio = min(2.0 * np.sqrt(log_var / iterations), np.log(8.0))
        ratio = float(np.exp(log_ratio))
        r2 = total / (1.0 + ratio)
        r1 = total - r2
        # Split each row: the off-diagonal share controls mixing; a fixed
        # 30% share reproduces the community structure coarsely.
        b = 0.3 * r1
        c = 0.3 * r2
        return cls(initiator=((r1 - b, b), (c, r2 - c)), iterations=iterations)

    def scaled(self, extra_iterations: int) -> "KroneckerModel":
        """The BDGS volume knob: more iterations, same initiator."""
        if extra_iterations < 0:
            raise ValueError("extra_iterations must be non-negative")
        return KroneckerModel(self.initiator, self.iterations + extra_iterations)

    def generate(self, rng: np.random.Generator, directed: bool = True) -> Graph:
        """Sample the graph: each edge independently descends the recursion."""
        num_edges = max(1, int(round(self.expected_edges)))
        flat = np.array(
            [self.initiator[0][0], self.initiator[0][1],
             self.initiator[1][0], self.initiator[1][1]],
            dtype=np.float64,
        )
        # Each round draws a quadrant 0..3 exactly as ``Generator.choice``
        # over the four normalized initiator entries does -- the number
        # of CDF entries <= a uniform draw -- but reads its two bits off
        # three comparisons instead of materializing it: the row bit is
        # ``quadrant >= 2``, the column bit ``quadrant in (1, 3)``.
        cdf = (flat / flat.sum()).cumsum()
        cdf /= cdf[-1]
        # The keys are passed on as the only reference to them, so that
        # the dedupe frees them once they are sorted.
        return Graph(
            edges=_first_edges(self._descend(cdf, num_edges, rng),
                               self.num_nodes),
            num_nodes=self.num_nodes,
            directed=directed,
        )

    def _descend(self, cdf: np.ndarray, num_edges: int,
                 rng: np.random.Generator) -> np.ndarray:
        """Every edge's key ``row * num_nodes + col`` after ``iterations``
        rounds, ``-1`` for a self-loop.

        One round's draws are taken a chunk at a time into one buffer
        (the same stream as one ``rng.random(num_edges)``), and every
        comparison writes into one of two chunk-sized masks; the keys
        are then written over the rows, a chunk at a time.
        """
        rows = np.zeros(num_edges, dtype=np.int64)
        cols = np.zeros(num_edges, dtype=np.int64)
        u = np.empty(min(num_edges, GUIDE_CHUNK), dtype=np.float64)
        bit_buffer = np.empty(u.size, dtype=bool)
        cut_buffer = np.empty(u.size, dtype=bool)
        for _ in range(self.iterations):
            for start in range(0, num_edges, GUIDE_CHUNK):
                size = min(GUIDE_CHUNK, num_edges - start)
                draws = rng.random(out=u[:size])
                bit, cut = bit_buffer[:size], cut_buffer[:size]
                row = rows[start:start + size]
                col = cols[start:start + size]
                np.greater_equal(draws, cdf[1], out=bit)
                row <<= 1
                row |= bit
                np.greater_equal(draws, cdf[0], out=cut)
                bit ^= cut
                np.greater_equal(draws, cdf[2], out=cut)
                bit ^= cut
                col <<= 1
                col |= bit
        for start in range(0, num_edges, GUIDE_CHUNK):
            row = rows[start:start + GUIDE_CHUNK]
            col = cols[start:start + GUIDE_CHUNK]
            loop = row == col
            row *= self.num_nodes
            row += col
            row[loop] = -1
        return rows


def graph_power_law_exponent(graph: Graph) -> float:
    """Degree power-law exponent of a graph (veracity metric)."""
    degrees = graph.degrees()
    return fit_degree_powerlaw(degrees[degrees > 0])
