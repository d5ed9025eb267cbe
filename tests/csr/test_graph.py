"""CSRGraph container semantics."""

import numpy as np
import pytest

from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.graph import CSRGraph, MemoryBreakdown
from repro.errors import QueryError, ValidationError
from tests.conftest import rows_sorted


@pytest.fixture
def small():
    # 0->{1,2}, 1->{}, 2->{0,2,3}, 3->{1}
    return CSRGraph(
        np.array([0, 2, 2, 5, 6]),
        np.array([1, 2, 0, 2, 3, 1]),
    )


class TestValidation:
    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValidationError, match="indptr\\[0\\]"):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_indptr_monotone(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            CSRGraph(np.array([0, 3, 1]), np.array([0, 0, 0]))

    def test_indptr_total(self):
        with pytest.raises(ValidationError, match="len\\(indices\\)"):
            CSRGraph(np.array([0, 2]), np.array([0]))

    def test_column_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_negative_columns(self):
        with pytest.raises(ValidationError, match="non-negative"):
            CSRGraph(np.array([0, 1]), np.array([-1]))

    def test_values_alignment(self):
        with pytest.raises(ValidationError, match="align"):
            CSRGraph(np.array([0, 1]), np.array([0]), values=np.array([1.0, 2.0]))

    def test_validate_false_skips(self):
        # an indptr/indices mismatch that validation would reject
        g = CSRGraph(np.array([0, 5]), np.array([9]), validate=False)
        assert g.num_nodes == 1  # garbage in, garbage tolerated when asked


class TestAccessors:
    def test_shape(self, small):
        assert small.num_nodes == 4
        assert small.num_edges == 6
        assert not small.is_weighted

    def test_degrees(self, small):
        assert small.degrees().tolist() == [2, 0, 3, 1]
        assert small.degree(2) == 3

    def test_neighbors_is_view(self, small):
        row = small.neighbors(2)
        assert row.tolist() == [0, 2, 3]
        assert row.base is small.indices

    def test_empty_row(self, small):
        assert small.neighbors(1).tolist() == []

    def test_has_edge(self, small):
        assert small.has_edge(0, 2)
        assert not small.has_edge(0, 3)
        assert small.has_edge(2, 2)  # self loop

    def test_node_range_checks(self, small):
        with pytest.raises(QueryError):
            small.neighbors(4)
        with pytest.raises(QueryError):
            small.degree(-1)
        with pytest.raises(QueryError):
            small.has_edge(0, 4)

    def test_rows_sorted(self, small):
        assert rows_sorted(small)
        shuffled = CSRGraph(small.indptr, np.array([2, 1, 0, 2, 3, 1]), validate=False)
        assert not rows_sorted(shuffled)

    def test_edges_roundtrip(self, small):
        src, dst = small.edges()
        rebuilt = build_csr_serial(*ensure_sorted(src, dst), small.num_nodes)
        assert rebuilt == small

    def test_weighted(self):
        g = CSRGraph(np.array([0, 2, 2]), np.array([0, 1]), values=np.array([1.5, 2.5]))
        assert g.is_weighted
        assert g.neighbor_weights(0).tolist() == [1.5, 2.5]

    def test_unweighted_weights_query(self, small):
        with pytest.raises(QueryError, match="unweighted"):
            small.neighbor_weights(0)


class TestMemory:
    def test_breakdown(self, small):
        mem = small.memory()
        assert isinstance(mem, MemoryBreakdown)
        assert mem.total == small.indptr.nbytes + small.indices.nbytes
        assert "indptr" in str(mem)

    def test_compact_dtypes_shrink(self, small):
        compact = small.compact_dtypes()
        assert compact == small
        assert compact.memory_bytes() < small.memory_bytes()
        assert compact.indices.dtype == np.uint8


class TestBridges:
    def test_dense_roundtrip(self, tiny_graph):
        g = CSRGraph.from_dense(tiny_graph)
        assert np.array_equal(g.to_dense(), tiny_graph)
        assert g.num_edges == tiny_graph.sum()

    def test_from_dense_rejects_rect(self):
        with pytest.raises(ValidationError):
            CSRGraph.from_dense(np.zeros((2, 3)))

    def test_scipy_roundtrip(self, small):
        sp = small.to_scipy()
        assert sp.shape == (4, 4)
        assert sp.nnz == 6

    def test_networkx_roundtrip(self, small):
        nxg = small.to_networkx()
        assert nxg.number_of_nodes() == 4
        back = CSRGraph.from_networkx(nxg)
        assert back == small

    def test_from_networkx_undirected_symmetrises(self):
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(3))
        g.add_edge(0, 2)
        csr = CSRGraph.from_networkx(g)
        assert csr.has_edge(0, 2) and csr.has_edge(2, 0)

    def test_from_networkx_requires_contiguous_labels(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_edge("a", "b")
        with pytest.raises(ValidationError, match="labelled"):
            CSRGraph.from_networkx(g)

    def test_equality(self, small):
        other = CSRGraph(small.indptr.copy(), small.indices.copy())
        assert small == other
        assert small != CSRGraph(np.array([0, 0]), np.array([], dtype=np.int64))
        assert (small == 42) is False or (small == 42) is NotImplemented
