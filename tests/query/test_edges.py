"""Algorithms 7 and 8 — edge-existence queries."""

import numpy as np
import pytest

from repro.csr.builder import build_csr_serial
from repro.csr.packed import BitPackedCSR
from repro.errors import QueryError, ValidationError
from repro.parallel import SimulatedMachine
from repro.query.edges import batch_edge_existence, single_edge_exists


@pytest.fixture
def graph(sorted_edges):
    src, dst, n = sorted_edges
    return build_csr_serial(src, dst, n)


@pytest.fixture(params=["csr", "packed"])
def store(request, graph):
    return graph if request.param == "csr" else BitPackedCSR.from_csr(graph)


def make_queries(graph, rng, k=100):
    src, dst = graph.edges()
    qs = np.stack(
        [rng.integers(0, graph.num_nodes, k), rng.integers(0, graph.num_nodes, k)],
        axis=1,
    )
    # guarantee a healthy share of real edges
    picks = rng.integers(0, graph.num_edges, k // 2)
    qs[: k // 2, 0] = src[picks]
    qs[: k // 2, 1] = dst[picks]
    return qs


class TestBatchEdgeExistence:
    @pytest.mark.parametrize("method", ["scan", "bisect"])
    def test_matches_pointwise(self, store, graph, rng, executor, method):
        qs = make_queries(graph, rng)
        got = batch_edge_existence(store, qs, executor, method=method)
        want = np.array([graph.has_edge(int(u), int(v)) for u, v in qs])
        assert np.array_equal(got, want)

    def test_accepts_pair_sequences(self, store):
        got = batch_edge_existence(store, [(0, 1), (1, 0)])
        assert got.shape == (2,)

    def test_empty_batch(self, store, executor):
        got = batch_edge_existence(store, np.zeros((0, 2), dtype=np.int64), executor)
        assert got.shape == (0,)

    def test_shape_validation(self, store):
        with pytest.raises(QueryError, match="pairs"):
            batch_edge_existence(store, np.zeros((2, 3), dtype=np.int64))

    def test_range_validation(self, store):
        with pytest.raises(QueryError):
            batch_edge_existence(store, [(0, store.num_nodes)])

    def test_unknown_method(self, store):
        with pytest.raises(ValidationError, match="unknown search method"):
            batch_edge_existence(store, [(0, 1)], method="quantum")

    def test_bisect_simulated_cheaper_than_scan(self, graph, rng):
        """The paper's binary-search extension must actually pay off in
        inspected elements on wide rows."""
        qs = make_queries(graph, rng, k=400)
        t = {}
        for method in ("scan", "bisect"):
            m = SimulatedMachine(4)
            batch_edge_existence(graph, qs, m, method=method)
            t[method] = m.elapsed_ns()
        assert t["bisect"] < t["scan"]


class TestSingleEdgeExists:
    @pytest.mark.parametrize("method", ["scan", "bisect"])
    def test_matches_has_edge(self, store, graph, rng, executor, method):
        for _ in range(30):
            u = int(rng.integers(0, graph.num_nodes))
            v = int(rng.integers(0, graph.num_nodes))
            got = single_edge_exists(store, u, v, executor, method=method)
            assert got == graph.has_edge(u, v)

    def test_present_edge_found_regardless_of_chunk(self, graph):
        src, dst = graph.edges()
        u, v = int(src[0]), int(dst[0])
        for p in (1, 2, 7, 64):
            assert single_edge_exists(graph, u, v, SimulatedMachine(p))

    def test_empty_row(self, graph):
        deg = graph.degrees()
        isolated = int(np.flatnonzero(deg == 0)[0]) if (deg == 0).any() else None
        if isolated is not None:
            assert not single_edge_exists(graph, isolated, 0, SimulatedMachine(4))

    def test_range_check(self, store):
        with pytest.raises(QueryError):
            single_edge_exists(store, store.num_nodes, 0)

    def test_bisect_chunks_each_bisected(self, graph):
        """Bisect within chunks must not miss hits at chunk boundaries."""
        u = int(np.argmax(graph.degrees()))
        row = graph.neighbors(u)
        for v in (int(row[0]), int(row[-1]), int(row[len(row) // 2])):
            for p in (3, 5, 16):
                assert single_edge_exists(graph, u, v, SimulatedMachine(p), method="bisect")

