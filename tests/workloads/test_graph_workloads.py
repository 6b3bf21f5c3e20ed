"""Functional tests for BFS, PageRank, Connected Components, and the
K-means assignment kernel."""

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.workloads.bfs import BfsWorkload
from repro.workloads.search import PageRankWorkload, pagerank_reference
from repro.workloads.social import (
    KMEANS_ASSIGN_BLOCK,
    ConnectedComponentsWorkload,
    connected_components_reference,
    kmeans_assign,
)

SMALL_CLUSTER = ClusterSpec(num_nodes=4)


class TestBfs:
    @pytest.fixture(scope="class")
    def outcome(self):
        workload = BfsWorkload()
        prepared = workload.prepare(1)
        return prepared, workload.run(prepared, cluster=SMALL_CLUSTER)

    def test_reaches_most_of_the_giant_component(self, outcome):
        prepared, result = outcome
        assert result.details["reached"] > 0.5 * prepared.details["nodes"]

    def test_levels_bounded_by_supersteps(self, outcome):
        _, result = outcome
        assert result.details["max_level"] < result.details["supersteps"]

    def test_only_mpi_stack(self, outcome):
        prepared, _ = outcome
        with pytest.raises(ValueError):
            BfsWorkload().run(prepared, stack="hadoop")

    def test_communication_charged(self, outcome):
        _, result = outcome
        assert result.cost.total_shuffle_bytes > 0


class TestPageRank:
    @pytest.fixture(scope="class")
    def prepared(self):
        return PageRankWorkload().prepare(1)

    @pytest.mark.parametrize("stack", ["hadoop", "spark", "mpi"])
    def test_matches_reference_on_every_stack(self, prepared, stack):
        result = PageRankWorkload(iterations=3).run(
            prepared, cluster=SMALL_CLUSTER, stack=stack
        )
        assert result.details["correct"] is True, result.details

    def test_rank_sum_is_probability_mass(self, prepared):
        result = PageRankWorkload(iterations=3).run(prepared, cluster=SMALL_CLUSTER)
        assert result.details["rank_sum"] == pytest.approx(1.0, abs=1e-6)

    def test_reference_converges(self, prepared):
        graph = prepared.payload
        r3 = pagerank_reference(graph, 3)
        r8 = pagerank_reference(graph, 8)
        r9 = pagerank_reference(graph, 9)
        assert np.abs(r9 - r8).max() < np.abs(r8 - r3).max()

    def test_iteration_validation(self):
        with pytest.raises(ValueError):
            PageRankWorkload(iterations=0)


class TestConnectedComponents:
    @pytest.fixture(scope="class")
    def prepared(self):
        return ConnectedComponentsWorkload().prepare(1)

    @pytest.mark.parametrize("stack", ["hadoop", "spark", "mpi"])
    def test_partition_matches_union_find(self, prepared, stack):
        result = ConnectedComponentsWorkload().run(
            prepared, cluster=SMALL_CLUSTER, stack=stack
        )
        assert result.details["correct"] is True, result.details

    def test_component_count_matches_reference(self, prepared):
        result = ConnectedComponentsWorkload().run(prepared, cluster=SMALL_CLUSTER)
        reference = connected_components_reference(prepared.payload)
        assert result.details["components"] == len(np.unique(reference))

    def test_reference_on_known_graph(self):
        from repro.datagen.graph import Graph

        edges = np.array([[0, 1], [2, 3], [3, 4]], dtype=np.int64)
        graph = Graph(edges=edges, num_nodes=6)
        labels = connected_components_reference(graph)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3] == labels[4]
        assert labels[0] != labels[2]
        assert labels[5] not in (labels[0], labels[2])


class TestKmeansAssign:
    """``kmeans_assign`` takes the points in row blocks; distances never
    cross rows, so it is the one-piece broadcast to the bit."""

    @pytest.mark.parametrize("count", [
        0, 1, KMEANS_ASSIGN_BLOCK - 1, KMEANS_ASSIGN_BLOCK,
        KMEANS_ASSIGN_BLOCK + 1, 3 * KMEANS_ASSIGN_BLOCK + 17])
    def test_blocks_equal_the_whole(self, count):
        rng = np.random.default_rng(count)
        points = rng.normal(0, 6.0, size=(count, 8))
        centroids = rng.normal(0, 6.0, size=(6, 8))
        points[::5] = centroids[2]      # exact ties with a centroid
        whole = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = kmeans_assign(points, centroids)
        assert assign.dtype == np.int64
        assert np.array_equal(assign, np.argmin(whole, axis=1))

    def test_read_only_points_are_fine(self):
        points = np.random.default_rng(0).normal(size=(100, 8))
        points.setflags(write=False)
        assert kmeans_assign(points, points[:6]).tolist()[:6] == list(range(6))
