"""BFS against networkx, and the degree histogram."""

import networkx as nx
import numpy as np
import pytest

from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.traversal import bfs_levels, degree_histogram
from repro.errors import QueryError
from repro.parallel import SimulatedMachine


@pytest.fixture
def graph(rng):
    n, m = 80, 300
    src, dst = ensure_sorted(rng.integers(0, n, m), rng.integers(0, n, m))
    return build_csr_serial(src, dst, n)


class TestBfs:
    def test_matches_networkx(self, graph, executor):
        nxg = graph.to_networkx()
        want = nx.single_source_shortest_path_length(nxg, 0)
        got = bfs_levels(graph, 0, executor)
        for node in range(graph.num_nodes):
            assert got[node] == want.get(node, -1)

    def test_source_level_zero(self, graph):
        assert bfs_levels(graph, 5)[5] == 0

    def test_disconnected_is_minus_one(self):
        g = build_csr_serial(np.array([0]), np.array([1]), 4)
        levels = bfs_levels(g, 0)
        assert levels.tolist() == [0, 1, -1, -1]

    def test_bad_source(self, graph):
        with pytest.raises(QueryError):
            bfs_levels(graph, graph.num_nodes)


class TestDegreeHistogram:
    def test_counts_sum_to_nodes(self, graph):
        values, counts = degree_histogram(graph)
        assert counts.sum() == graph.num_nodes
        recon = dict(zip(values.tolist(), counts.tolist()))
        degs = graph.degrees()
        for d in set(degs.tolist()):
            assert recon[d] == int((degs == d).sum())

    def test_empty(self):
        g = build_csr_serial(np.zeros(0, np.int64), np.zeros(0, np.int64), 0)
        values, counts = degree_histogram(g)
        assert values.size == 0 and counts.size == 0
