"""Relabeling and the degree / BFS ordering kernels."""

import networkx as nx
import numpy as np
import pytest

from repro.bitpack import row_gaps, varint_encode
from repro.csr.builder import build_csr, build_csr_serial, ensure_sorted
from repro.errors import ValidationError
from repro.reorder import bfs_order, degree_order, relabel


@pytest.fixture
def graph(sorted_edges):
    src, dst, n = sorted_edges
    return build_csr_serial(src, dst, n)


def is_isomorphic_by_perm(a, b, perm):
    """b must contain exactly a's edges renamed through perm."""
    sa, da = a.edges()
    sb, db = b.edges()
    want = sorted(zip(perm[sa].tolist(), perm[da].tolist()))
    got = sorted(zip(sb.tolist(), db.tolist()))
    return want == got


class TestRelabel:
    def test_preserves_structure(self, graph, rng):
        perm = rng.permutation(graph.num_nodes).astype(np.int64)
        out = relabel(graph, perm)
        assert out.num_edges == graph.num_edges
        assert is_isomorphic_by_perm(graph, out, perm)

    def test_identity(self, graph):
        perm = np.arange(graph.num_nodes)
        assert relabel(graph, perm) == graph

    def test_weights_follow(self, rng):
        n, m = 30, 200
        src = np.sort(rng.integers(0, n, m))
        dst = rng.integers(0, n, m)
        w = rng.integers(0, 50, m)
        g = build_csr(src, dst, n, weights=w, sort=True)
        perm = rng.permutation(n).astype(np.int64)
        out = relabel(g, perm)
        # total weight per relabeled edge set must match
        triples_in = sorted(zip(perm[src].tolist(), perm[dst].tolist(), w.tolist()))
        so, do = out.edges()
        triples_out = sorted(zip(so.tolist(), do.tolist(), out.values.tolist()))
        assert triples_in == triples_out

    def test_rejects_non_permutation(self, graph):
        with pytest.raises(ValidationError, match="permutation"):
            relabel(graph, np.zeros(graph.num_nodes, dtype=np.int64))
        with pytest.raises(ValidationError, match="shape"):
            relabel(graph, np.arange(graph.num_nodes + 1))

    def test_rejects_out_of_range_entry(self):
        graph = build_csr_serial(np.array([0]), np.array([1]), 2)
        with pytest.raises(ValidationError, match=r"must lie in \[0, 2\)"):
            relabel(graph, [0, -1])


class TestOrders:
    def test_degree_order_puts_hubs_first(self, graph):
        perm = degree_order(graph)
        src, dst = graph.edges()
        total = graph.degrees() + np.bincount(dst, minlength=graph.num_nodes)
        hub = int(np.argmax(total))
        assert perm[hub] == 0

    def test_degree_order_is_permutation(self, graph):
        perm = degree_order(graph)
        assert sorted(perm.tolist()) == list(range(graph.num_nodes))

    def test_bfs_order_matches_networkx_layers(self, graph):
        perm = bfs_order(graph, 0)
        assert sorted(perm.tolist()) == list(range(graph.num_nodes))
        assert perm[0] == 0
        # ids within reach ordered by BFS level
        lengths = nx.single_source_shortest_path_length(graph.to_networkx(), 0)
        reached = sorted(lengths, key=lambda v: perm[v])
        levels = [lengths[v] for v in reached]
        assert levels == sorted(levels)

    def test_degree_order_improves_gap_compression(self, rng):
        """The point of reordering: hubs at small ids shrink gap codes
        on preferential-attachment graphs."""
        from repro.datasets import ba_edges

        src, dst, n = ba_edges(1500, 4, rng=rng)
        src, dst = ensure_sorted(src, dst)
        g = build_csr_serial(src, dst, n)
        before = varint_encode(row_gaps(g.indptr, g.indices)).nbytes
        reordered = relabel(g, degree_order(g))
        after = varint_encode(row_gaps(reordered.indptr, reordered.indices)).nbytes
        assert after < before
