"""The element-budget LRU row cache wrapping any GraphStore."""

import numpy as np
import pytest

from repro.analysis.serving import render_cache_stats
from repro.csr.builder import build_csr_serial
from repro.csr.packed import BitPackedCSR
from repro.errors import ValidationError
from repro.parallel import SimulatedMachine
from repro.query import (
    GraphStore,
    QueryEngine,
    RowCache,
    batch_edge_existence,
    batch_neighbors,
)


@pytest.fixture
def graph(sorted_edges):
    src, dst, n = sorted_edges
    return build_csr_serial(src, dst, n)


@pytest.fixture
def packed(graph):
    return BitPackedCSR.from_csr(graph)


class TestRowCacheBasics:
    def test_satisfies_store_protocol(self, packed):
        cache = RowCache(packed, capacity=1000)
        assert isinstance(cache, GraphStore)
        assert cache.num_nodes == packed.num_nodes
        assert cache.num_edges == packed.num_edges

    def test_hit_miss_counters(self, packed):
        cache = RowCache(packed, capacity=10_000)
        cache.neighbors(3)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.neighbors(3)
        assert (cache.hits, cache.misses) == (1, 1)
        cache.neighbors(4)
        assert (cache.hits, cache.misses) == (1, 2)

    def test_rows_bit_exact(self, packed, graph, rng):
        cache = RowCache(packed, capacity=10_000)
        for u in rng.integers(0, graph.num_nodes, 100).tolist():
            got = cache.neighbors(u)
            want = packed.neighbors(u)
            assert got.dtype == cache.row_dtype
            assert np.array_equal(got, want)

    def test_has_edge_matches(self, packed, rng):
        cache = RowCache(packed, capacity=10_000)
        for _ in range(60):
            u = int(rng.integers(0, packed.num_nodes))
            v = int(rng.integers(0, packed.num_nodes))
            assert cache.has_edge(u, v) == packed.has_edge(u, v)

    def test_eviction_by_elements(self, graph):
        degs = graph.degrees()
        heavy = [int(u) for u in np.argsort(degs)[::-1][:5]]
        cap = int(degs[heavy].sum()) - 1  # can't hold all five
        cache = RowCache(graph, capacity=cap)
        # the fifth row's first touch finds the cache full and is
        # refused; its second touch is admitted and evicts
        for u in heavy + heavy[-1:]:
            cache.neighbors(u)
        assert cache.evictions >= 1
        assert cache.stats().elements <= cap

    def test_oversized_row_served_not_cached(self, graph):
        u = int(np.argmax(graph.degrees()))
        cache = RowCache(graph, capacity=graph.degree(u) - 1)
        row = cache.neighbors(u)
        assert np.array_equal(row, graph.neighbors(u))
        assert cache.stats().rows == 0

    def test_clear(self, graph):
        cache = RowCache(graph, capacity=1000)
        cache.neighbors(0)
        cache.clear()
        s = cache.stats()
        assert (s.hits, s.misses, s.rows, s.elements) == (0, 0, 0, 0)

    def test_negative_capacity_rejected(self, graph):
        with pytest.raises(Exception):
            RowCache(graph, capacity=-1)


class TestRowCacheBatch:
    def test_neighbors_batch_parity_and_single_decode(self, packed, rng):
        cache = RowCache(packed, capacity=100_000)
        us = rng.integers(0, packed.num_nodes, 50)
        us = np.concatenate([us, us])  # duplicates hit within the batch
        flat, offs = cache.neighbors_batch(us)
        for i, u in enumerate(us.tolist()):
            assert np.array_equal(flat[offs[i] : offs[i + 1]], packed.neighbors(u))
        # second pass is all hits
        before = cache.misses
        cache.neighbors_batch(us)
        assert cache.misses == before
        assert cache.hits >= len(us)

    def test_rejects_2d(self, packed):
        cache = RowCache(packed, capacity=100)
        with pytest.raises(ValidationError):
            cache.neighbors_batch(np.zeros((2, 2), dtype=np.int64))

    def test_batch_kernels_accept_cache(self, packed, graph, rng):
        cache = RowCache(packed, capacity=100_000)
        us = rng.integers(0, graph.num_nodes, 80)
        rows = batch_neighbors(cache, us, SimulatedMachine(4))
        for u, row in zip(us.tolist(), rows):
            assert np.array_equal(row, packed.neighbors(u))
        qs = np.stack(
            [rng.integers(0, graph.num_nodes, 80), rng.integers(0, graph.num_nodes, 80)],
            axis=1,
        )
        got = batch_edge_existence(cache, qs, SimulatedMachine(4), method="bisect")
        want = np.array([graph.has_edge(int(u), int(v)) for u, v in qs])
        assert np.array_equal(got, want)
        # edge chunks dedupe sources, so they add >= 1 access per chunk
        # on top of the 80 neighbour fetches
        assert cache.hits + cache.misses > 80


class TestRowCacheRetention:
    """Cached rows must be owned copies with honest accounting: a
    resident row may not pin the batch decode buffer (or the CSR's
    whole indices array) it was sliced from, empty rows must not leak
    past the element budget, and re-inserting a resident key must not
    double-count."""

    def test_cached_rows_are_owned_copies(self, packed, graph, rng):
        cache = RowCache(packed, capacity=100_000)
        us = rng.integers(0, packed.num_nodes, 50)
        cache.neighbors_batch(us)
        assert cache.stats().rows > 0
        assert all(row.base is None for row in cache._rows.values())
        # single-row fills through a view-returning store copy too
        csr_cache = RowCache(graph, capacity=100_000)
        csr_cache.neighbors(0)
        assert all(row.base is None for row in csr_cache._rows.values())

    def test_memory_bytes_matches_resident_elements(self, packed, rng):
        cache = RowCache(packed, capacity=100_000)
        us = rng.integers(0, packed.num_nodes, 50)
        cache.neighbors_batch(us)
        stats = cache.stats()
        itemsize = cache.row_dtype.itemsize
        assert (  # plus one admission-state byte per node
            cache.memory_bytes() - packed.memory_bytes()
            == stats.elements * itemsize + packed.num_nodes
        )

    def test_empty_rows_resident_at_one_element_each(self):
        """Uncached, an empty row missed forever and sent every batch
        that touched one down the wrapped stack; resident, it is one
        shared array charged one element of the budget, no bytes."""
        g = build_csr_serial([0, 0], [1, 2], 6)  # nodes 3, 4, 5 are isolated
        cache = RowCache(g, capacity=3)
        for _ in range(3):
            assert cache.neighbors(3).shape == (0,)
        s = cache.stats()
        assert (s.rows, s.elements, s.misses, s.hits) == (1, 0, 1, 2)
        assert cache.neighbors_batch([3, 4])[0].dtype == cache.row_dtype
        assert cache.neighbors(3) is cache.neighbors(4)  # the shared array
        assert cache.memory_bytes() == g.memory_bytes() + g.num_nodes  # + state bytes
        # each is charged one element: row 0 (2 elements) on top of two
        # empty rows overflows the budget of 3, so its first touch is
        # refused and its second evicts the older one
        for _ in range(2):
            cache.neighbors(0)
        s = cache.stats()
        assert (s.rows, s.elements, s.evictions, s.refused) == (2, 2, 1, 1)
        assert 3 not in cache._rows and 4 in cache._rows
        for _ in range(2):
            cache.neighbors(5)
        assert list(cache._rows) == [0, 5] and cache.evictions == 2

    def test_capacity_zero_caches_nothing(self):
        g = build_csr_serial([0, 0], [1, 2], 4)
        cache = RowCache(g, capacity=0)
        for u in (0, 1, 3, 0):
            cache.neighbors(u)
        s = cache.stats()
        assert (s.rows, s.elements, s.hits) == (0, 0, 0)

    def test_reinsert_does_not_double_count(self, packed):
        cache = RowCache(packed, capacity=100_000)
        row = cache.neighbors(0)
        if row.shape[0] == 0:
            pytest.skip("fixture node 0 has no edges")
        before = cache.stats().elements
        cache._insert(0, packed.neighbors(0))
        assert cache.stats().elements == before
        assert cache.stats().rows == len(cache._rows)


class TestRowCacheSurfacing:
    def test_repr_carries_counters(self, packed):
        cache = RowCache(packed, capacity=500)
        cache.neighbors(1)
        cache.neighbors(1)
        text = repr(cache)
        assert "hits=1" in text and "misses=1" in text and "hit_rate" in text

    def test_engine_repr_surfaces_cache(self, packed):
        cache = RowCache(packed, capacity=500)
        engine = QueryEngine(cache, SimulatedMachine(2))
        engine.neighbors([0, 1, 0])
        assert "RowCache" in repr(engine)
        assert "hits=" in repr(engine)

    def test_render_cache_stats(self, packed):
        cache = RowCache(packed, capacity=500)
        cache.neighbors(2)
        cache.neighbors(2)
        table = render_cache_stats(cache)
        assert "hit rate" in table
        assert "50.0%" in table

    def test_stats_hit_rate_empty(self, packed):
        assert RowCache(packed, capacity=10).stats().hit_rate == 0.0


class TestRowCacheInvalidation:
    """invalidate(nodes) drops resident rows so mutable stores can keep
    cached reads consistent after writes (the lsm serving path)."""

    def test_invalidate_drops_resident_rows(self, packed):
        cache = RowCache(packed, capacity=10_000)
        cache.neighbors(1)
        cache.neighbors(2)
        elements = cache.stats().elements
        dropped = cache.invalidate([1, 7])  # 7 was never cached
        assert dropped == 1
        assert cache.invalidations == 1
        assert cache.stats().elements < elements or packed.degree(1) == 0
        # next read is a miss, re-fetched from the store
        misses = cache.misses
        cache.neighbors(1)
        assert cache.misses == misses + 1

    def test_invalidate_prevents_stale_reads(self, sorted_edges):
        """Without invalidation a cached row outlives a write; with it
        the next read sees the new edge."""
        from repro.lsm import build_lsm_store

        src, dst, n = sorted_edges
        store = build_lsm_store(src, dst, n)
        cache = RowCache(store, capacity=100_000)
        u = 5
        v = next(x for x in range(n) if not store.has_edge(u, x))
        stale = cache.neighbors(u)
        store.insert_edge(u, v)
        assert np.array_equal(cache.neighbors(u), stale), "expected staleness"
        cache.invalidate([u])
        assert v in cache.neighbors(u).tolist()

    def test_invalidate_accepts_array_and_counts_cumulatively(self, packed):
        cache = RowCache(packed, capacity=10_000)
        for u in range(6):
            cache.neighbors(u)
        assert cache.invalidate(np.arange(3)) == 3
        assert cache.invalidate(np.arange(6)) == 3  # 0-2 already gone
        assert cache.invalidations == 6
        assert cache.invalidate([]) == 0

    def test_invalidations_rendered_and_reset(self, packed):
        cache = RowCache(packed, capacity=10_000)
        cache.neighbors(2)
        cache.invalidate([2])
        assert cache.stats().invalidations == 1
        assert "invalidations" in render_cache_stats(cache)
        cache.clear()
        assert cache.invalidations == 0
