"""Weighted graphs: the paper's vA array through the full pipeline."""

import numpy as np
import pytest

from repro.csr.builder import build_csr
from repro.csr.packed import BitPackedCSR, build_bitpacked_csr
from repro.errors import QueryError, ValidationError
from repro.parallel import SimulatedMachine
from repro.stores import load_store, save_store


@pytest.fixture
def weighted_edges(rng):
    n, m = 120, 1500
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    w = rng.integers(0, 1000, m)
    return src, dst, w, n


class TestWeightedBuild:
    def test_weights_follow_edges_through_sort(self, weighted_edges, executor):
        src, dst, w, n = weighted_edges
        g = build_csr(src, dst, n, executor, weights=w, sort=True)
        assert g.is_weighted
        # every (u, v, w) triple survives; check via multiset per row
        lookup: dict[tuple[int, int], list[int]] = {}
        for u, v, weight in zip(src.tolist(), dst.tolist(), w.tolist()):
            lookup.setdefault((u, v), []).append(weight)
        for u in range(0, n, 17):
            row = g.neighbors(u).tolist()
            weights = g.neighbor_weights(u).tolist()
            for v in set(row):
                got = sorted(weights[i] for i, x in enumerate(row) if x == v)
                assert got == sorted(lookup[(u, int(v))])

    def test_weight_length_mismatch(self, weighted_edges):
        src, dst, w, n = weighted_edges
        with pytest.raises(ValidationError, match="align"):
            build_csr(src, dst, n, weights=w[:-1], sort=True)

    def test_unweighted_default(self, weighted_edges):
        src, dst, _, n = weighted_edges
        g = build_csr(src, dst, n, sort=True)
        assert not g.is_weighted


class TestWeightedPacked:
    def test_roundtrip(self, weighted_edges, executor):
        src, dst, w, n = weighted_edges
        packed = build_bitpacked_csr(src, dst, n, executor, weights=w, sort=True)
        assert packed.is_weighted
        back = packed.to_csr()
        assert back.is_weighted
        ref = build_csr(src, dst, n, weights=w, sort=True)
        assert np.array_equal(back.values, ref.values.astype(np.int64))
        assert np.array_equal(back.indices, ref.indices.astype(np.int64))

    def test_neighbor_weights_decode(self, weighted_edges):
        src, dst, w, n = weighted_edges
        ref = build_csr(src, dst, n, weights=w, sort=True)
        packed = BitPackedCSR.from_csr(ref)
        for u in (0, 7, 63, n - 1):
            assert packed.neighbor_weights(u).tolist() == ref.neighbor_weights(u).tolist()

    def test_unweighted_weight_query_rejected(self, weighted_edges):
        src, dst, _, n = weighted_edges
        packed = build_bitpacked_csr(src, dst, n, sort=True)
        with pytest.raises(QueryError, match="unweighted"):
            packed.neighbor_weights(0)

    def test_float_weights_rejected(self, weighted_edges):
        src, dst, _, n = weighted_edges
        g = build_csr(src, dst, n, weights=np.random.rand(len(src)), sort=True)
        with pytest.raises(ValidationError, match="integer weights"):
            BitPackedCSR.from_csr(g)

    def test_negative_weights_rejected(self, weighted_edges):
        src, dst, _, n = weighted_edges
        g = build_csr(src, dst, n, weights=np.full(len(src), -1), sort=True)
        with pytest.raises(ValidationError, match="non-negative"):
            BitPackedCSR.from_csr(g)

    def test_memory_includes_values(self, weighted_edges):
        src, dst, w, n = weighted_edges
        plain = build_bitpacked_csr(src, dst, n, sort=True)
        weighted = build_bitpacked_csr(src, dst, n, weights=w, sort=True)
        assert weighted.memory_bytes() > plain.memory_bytes()
        assert weighted.bits_per_edge() > plain.bits_per_edge()

    def test_equality_distinguishes_weights(self, weighted_edges):
        src, dst, w, n = weighted_edges
        a = build_bitpacked_csr(src, dst, n, weights=w, sort=True)
        b = build_bitpacked_csr(src, dst, n, sort=True)
        assert a != b
        c = build_bitpacked_csr(src, dst, n, weights=w, sort=True)
        assert a == c

    def test_save_load_weighted(self, weighted_edges, tmp_path):
        src, dst, w, n = weighted_edges
        packed = build_bitpacked_csr(src, dst, n, weights=w, sort=True)
        path = tmp_path / "w.npz"
        save_store(packed, path)
        assert load_store(path) == packed

    def test_zero_weight_graph(self):
        packed = build_bitpacked_csr(
            np.array([0]), np.array([1]), 2, weights=np.array([0])
        )
        assert packed.neighbor_weights(0).tolist() == [0]
        assert packed.values_width == 1
