"""Unit tests for graph structures and the Kronecker generator."""

import time

import numpy as np
import pytest

from repro.datagen.graph import (
    Graph,
    KroneckerModel,
    _first_edges,
    graph_power_law_exponent,
    preferential_attachment,
)


def small_graph():
    edges = np.array([[0, 1], [0, 2], [1, 2], [2, 0]], dtype=np.int64)
    return Graph(edges=edges, num_nodes=3)


# -- oracles: the edge-list idioms the CSR build and the dedupe replaced ----------

def symmetrized(graph):
    """Both edge directions as one edge list (what the undirected
    traversals used to build before taking its adjacency)."""
    both = np.vstack([graph.edges, graph.edges[:, ::-1]])
    return Graph(edges=both, num_nodes=graph.num_nodes, directed=False)


def reference_adjacency(graph):
    """Targets gathered through a stable sort of the sources."""
    sources = graph.edges[:, 0]
    indices = graph.edges[np.argsort(sources, kind="stable"), 1]
    indptr = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=graph.num_nodes),
              out=indptr[1:])
    return indptr, indices.astype(np.int64)


def reference_deduplicated(graph):
    """Self-loops out, then the first occurrence of every edge."""
    edges = graph.edges[graph.edges[:, 0] != graph.edges[:, 1]]
    _, first = np.unique(edges[:, 0].astype(np.int64) * graph.num_nodes
                         + edges[:, 1], return_index=True)
    keep = np.zeros(len(edges), dtype=bool)
    keep[first] = True
    return edges[keep]


def scalar_preferential_attachment(num_nodes, edges_per_node, rng):
    """The generator before vectorization: one pool draw at a time."""
    sources, targets, pool = [], [], [0]
    for node in range(1, num_nodes):
        fanout = min(edges_per_node, node)
        chosen = set()
        while len(chosen) < fanout:
            pick = pool[int(rng.integers(0, len(pool)))]
            if pick != node:
                chosen.add(pick)
        for dst in chosen:
            sources.append(node)
            targets.append(dst)
            pool.append(dst)
        pool.append(node)
    edges = np.column_stack([np.asarray(sources, dtype=np.int64),
                             np.asarray(targets, dtype=np.int64)])
    return Graph(edges=edges, num_nodes=num_nodes)


def deduplicated(graph):
    """The Kronecker generator's dedupe, run on any edge list."""
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    keys = src * graph.num_nodes + dst
    keys[src == dst] = -1
    return _first_edges(keys, graph.num_nodes)


def random_graph(num_edges, num_nodes=1000, seed=0, dtype=np.int64):
    """Skewed endpoints: parallel edges, self-loops, isolated vertices."""
    rng = np.random.default_rng(seed)
    edges = (rng.pareto(1.2, size=(num_edges, 2)) * 20).astype(np.int64)
    return Graph(edges=np.minimum(edges, num_nodes - 1).astype(dtype),
                 num_nodes=num_nodes)


#: Around one chunk of the CSR build and the dedupe decode, and across two.
CHUNK_SIZES = [0, 1, 7, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
               2 * (1 << 16) + 1]


class TestGraph:
    def test_degrees(self):
        graph = small_graph()
        assert graph.out_degrees().tolist() == [2, 1, 1]
        assert graph.in_degrees().tolist() == [1, 1, 2]
        assert graph.degrees().tolist() == [3, 2, 3]

    def test_adjacency_csr(self):
        indptr, indices = small_graph().adjacency()
        assert indptr.tolist() == [0, 2, 3, 4]
        assert sorted(indices[0:2].tolist()) == [1, 2]
        assert indices[2] == 2
        assert indices[3] == 0

    def test_symmetric_adjacency_is_the_csr_of_both_directions(self):
        indptr, indices = small_graph().symmetric_adjacency()
        want_indptr, want_indices = symmetrized(small_graph()).adjacency()
        assert indptr.tolist() == want_indptr.tolist() == [0, 3, 5, 8]
        assert indices.tolist() == want_indices.tolist() == [1, 2, 2, 2, 0,
                                                             0, 0, 1]

    @pytest.mark.parametrize("num_edges", CHUNK_SIZES)
    def test_csr_builds_match_their_oracles(self, num_edges):
        graph = random_graph(num_edges, seed=num_edges)
        for (indptr, indices), (want_indptr, want_indices) in (
                (graph.adjacency(), reference_adjacency(graph)),
                (graph.symmetric_adjacency(),
                 reference_adjacency(symmetrized(graph)))):
            assert indptr.dtype == indices.dtype == np.int64
            assert np.array_equal(indptr, want_indptr)
            assert np.array_equal(indices, want_indices)

    def test_csr_of_narrow_read_only_edges(self):
        graph = random_graph(5000, num_nodes=300, seed=3, dtype=np.int32)
        graph.edges.setflags(write=False)
        want = reference_adjacency(symmetrized(graph))
        got = graph.symmetric_adjacency()
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert np.array_equal(graph.degrees(),
                              np.bincount(graph.edges.ravel(),
                                          minlength=graph.num_nodes))

    def test_dedupe_removes_loops_and_dups(self):
        edges = np.array([[0, 0], [1, 2], [1, 2], [2, 1]], dtype=np.int64)
        kept = deduplicated(Graph(edges=edges, num_nodes=3))
        assert kept.tolist() == [[1, 2], [2, 1]]

    @pytest.mark.parametrize("num_edges", CHUNK_SIZES)
    def test_dedupe_matches_its_oracle(self, num_edges):
        graph = random_graph(num_edges, seed=num_edges)
        got = deduplicated(graph)
        want = reference_deduplicated(graph)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(edges=np.array([[0, 5]]), num_nodes=3)
        with pytest.raises(ValueError):
            Graph(edges=np.array([0, 1, 2]), num_nodes=3)


class TestPreferentialAttachment:
    def test_sizes(self):
        graph = preferential_attachment(500, 4, np.random.default_rng(0))
        assert graph.num_nodes == 500
        # Node i < 4 contributes fewer edges; roughly 4 per node after.
        assert graph.num_edges > 4 * 450

    def test_heavy_tail(self):
        graph = preferential_attachment(2000, 5, np.random.default_rng(1))
        degrees = graph.degrees()
        assert degrees.max() > 8 * np.median(degrees[degrees > 0])

    def test_no_self_loops(self):
        graph = preferential_attachment(200, 3, np.random.default_rng(2))
        assert np.all(graph.edges[:, 0] != graph.edges[:, 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            preferential_attachment(1, 1, np.random.default_rng(0))

    #: The Google web graph seed's geometry.
    SEED_GEOMETRY = (8192, 6)

    def test_keeps_the_scalar_generators_contract(self):
        """Same edge count as the scalar oracle, no self-loops, and a
        heavy tail at the seed's geometry."""
        scalar = scalar_preferential_attachment(
            *self.SEED_GEOMETRY, np.random.default_rng(103))
        graph = preferential_attachment(*self.SEED_GEOMETRY,
                                        np.random.default_rng(103))
        assert graph.num_edges == scalar.num_edges
        assert (graph.edges[:, 0] != graph.edges[:, 1]).all()
        degrees = graph.degrees()
        assert degrees.max() >= 20 * np.median(degrees[degrees > 0])

    @pytest.mark.slow
    def test_at_least_twice_the_scalar_oracle(self):
        def seconds(generate):
            start = time.perf_counter()
            generate(*self.SEED_GEOMETRY, np.random.default_rng(103))
            return time.perf_counter() - start

        scalar = seconds(scalar_preferential_attachment)
        vector = seconds(preferential_attachment)
        assert vector * 2 <= scalar, (
            f"vectorized {vector:.3f}s vs scalar {scalar:.3f}s")


class TestKronecker:
    def test_node_and_edge_expectations(self):
        model = KroneckerModel(initiator=((0.9, 0.6), (0.5, 0.3)), iterations=10)
        assert model.num_nodes == 1024
        assert model.expected_edges == pytest.approx(2.3 ** 10)

    def test_generate_within_bounds(self):
        model = KroneckerModel(initiator=((0.9, 0.6), (0.5, 0.3)), iterations=10)
        graph = model.generate(np.random.default_rng(3))
        assert graph.num_nodes == 1024
        assert graph.edges.max() < 1024
        # Dedup can only lose edges.
        assert graph.num_edges <= round(model.expected_edges)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("directed", [True, False])
    def test_generate_is_the_rng_choice_descent(self, seed, directed):
        """``generate`` reads the quadrant's two bits off three comparisons
        of the uniform draw ``rng.choice`` would have made; the loop it
        replaced is the oracle."""
        model = KroneckerModel(initiator=((0.9, 0.6), (0.5, 0.3)), iterations=11)

        def choice_descent(rng):
            num_edges = max(1, int(round(model.expected_edges)))
            flat = np.array(model.initiator, dtype=np.float64).ravel()
            probs = flat / flat.sum()
            rows = np.zeros(num_edges, dtype=np.int64)
            cols = np.zeros(num_edges, dtype=np.int64)
            for _ in range(model.iterations):
                quadrant = rng.choice(4, size=num_edges, p=probs)
                rows = (rows << 1) | (quadrant >> 1)
                cols = (cols << 1) | (quadrant & 1)
            return Graph(edges=reference_deduplicated(Graph(
                edges=np.column_stack([rows, cols]),
                num_nodes=model.num_nodes)),
                num_nodes=model.num_nodes, directed=directed)

        rng = np.random.default_rng(seed)
        graph = model.generate(rng, directed=directed)
        want_rng = np.random.default_rng(seed)
        want = choice_descent(want_rng)
        assert graph.edges.dtype == want.edges.dtype
        assert np.array_equal(graph.edges, want.edges)
        assert (graph.num_nodes, graph.directed) == (want.num_nodes, directed)
        # The generator is left where the old loop left it.
        assert rng.random() == want_rng.random()

    def test_estimate_matches_edge_count(self):
        seed = preferential_attachment(4096, 8, np.random.default_rng(4))
        model = KroneckerModel.estimate(seed)
        assert model.expected_edges == pytest.approx(seed.num_edges, rel=0.01)
        assert model.num_nodes == 4096

    def test_estimate_then_generate_preserves_density(self):
        seed = preferential_attachment(4096, 8, np.random.default_rng(5))
        model = KroneckerModel.estimate(seed)
        synth = model.generate(np.random.default_rng(6))
        seed_density = seed.num_edges / seed.num_nodes
        synth_density = synth.num_edges / synth.num_nodes
        assert synth_density == pytest.approx(seed_density, rel=0.2)

    def test_scaled_grows_volume_keeps_initiator(self):
        model = KroneckerModel(initiator=((0.9, 0.6), (0.5, 0.3)), iterations=10)
        bigger = model.scaled(2)
        assert bigger.num_nodes == 4096
        assert bigger.initiator == model.initiator
        with pytest.raises(ValueError):
            model.scaled(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            KroneckerModel(initiator=((-1, 0), (0, 0)), iterations=3)
        with pytest.raises(ValueError):
            KroneckerModel(initiator=((0.5, 0.5), (0.5, 0.5)), iterations=0)
        empty = Graph(edges=np.empty((0, 2), dtype=np.int64), num_nodes=4)
        with pytest.raises(ValueError):
            KroneckerModel.estimate(empty)

    def test_power_law_exponent_positive(self):
        graph = preferential_attachment(2000, 5, np.random.default_rng(7))
        assert graph_power_law_exponent(graph) > 1.0
