"""Second-touch admission: a full ``RowCache`` admits a missed row only
when it was asked for before.

A miss that fits without evicting is admitted as always; a miss that
would evict is admitted on its second touch inside the window (one
capacity of refused charges), and otherwise served as a read-only view
of the decode buffer.  Neither changes a reply.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.serving import render_cache_stats
from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.packed import BitPackedCSR
from repro.errors import QueryError
from repro.obs import MetricsRegistry, register_server
from repro.query import RowCache
from repro.serve import GraphQueryServer, NeighborsRequest, ServerConfig


def _read(cache, u, batched):
    """Row *u* through the batch surface or the scalar one."""
    if batched:
        rows = cache.neighbor_rows([u])
        return rows[0]
    return cache.neighbors(u)


class ListStore:
    """The store surface over rows held in a Python list."""

    def __init__(self, rows):
        self.rows = [np.asarray(r, dtype=np.int64) for r in rows]
        self.num_nodes = len(self.rows)
        self.num_edges = sum(r.shape[0] for r in self.rows)

    def degree(self, u):
        return self.rows[u].shape[0]

    def neighbors(self, u):
        return self.rows[u].copy()

    def has_edge(self, u, v):
        return bool((self.rows[u] == v).any())

    def memory_bytes(self):
        return sum(r.nbytes for r in self.rows)


@pytest.fixture
def store():
    """Ten nodes of three neighbours each (node 9 has none): a budget
    of 6 elements holds exactly two rows."""
    src = np.repeat(np.arange(9), 3)
    dst = (src * 7 + np.tile([1, 2, 3], 9)) % 10
    return build_csr_serial(*ensure_sorted(src, dst), 10)


@pytest.fixture
def full(store):
    """A cache of budget 6 holding rows 0 and 1."""
    cache = RowCache(store, 6)
    cache.neighbor_rows([0, 1])
    assert list(cache._rows) == [0, 1] and cache._charged == 6
    return cache


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "scalar"])
class TestRules:
    def test_a_miss_with_room_is_admitted(self, store, batched):
        cache = RowCache(store, 6)
        row = _read(cache, 4, batched)
        assert 4 in cache._rows and not cache._asked[4]
        assert row is cache._rows[4]
        s = cache.stats()
        assert (s.misses, s.refused, s.evictions) == (1, 0, 0)

    def test_a_full_cache_refuses_a_first_touch(self, store, full, batched):
        row = _read(full, 2, batched)
        assert np.array_equal(row, store.neighbors(2)) and row.dtype == full.row_dtype
        assert not row.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            row[:1] = 0
        assert 2 not in full._rows and full._asked[2]
        assert list(full._rows) == [0, 1]
        s = full.stats()
        assert (s.misses, s.refused, s.evictions) == (3, 1, 0)

    def test_a_second_touch_in_the_window_is_admitted(self, full, batched):
        _read(full, 2, batched)
        row = _read(full, 2, batched)
        assert row is full._rows[2]
        assert list(full._rows) == [1, 2]  # the LRU end made room
        assert (full.evictions, full.refused) == (1, 1)

    def test_an_evicted_row_starts_over(self, full, batched):
        full.invalidate([1])
        _read(full, 1, batched)  # marked, and re-admitted: it fits
        assert full._asked[1] and list(full._rows) == [0, 1]
        for u in (2, 2, 3, 3):  # two second touches evict rows 0 and 1
            _read(full, u, batched)
        assert list(full._rows) == [2, 3] and full.evictions == 2
        assert not full._asked[1]
        _read(full, 1, batched)  # a first touch again: refused
        assert 1 not in full._rows

    def test_the_window_resets_after_capacity_refused_elements(self, full, batched):
        _read(full, 3, batched)
        _read(full, 4, batched)  # 6 refused elements: not over the budget yet
        assert full._asked[3] and full._asked[4]
        _read(full, 5, batched)  # 9 > 6: every "asked once" mark is forgotten
        assert not full._asked.any() and full._window == 0
        _read(full, 3, batched)  # a first touch again
        assert 3 not in full._rows and full._asked[3]
        assert full.refused == 4 and full.evictions == 0

    def test_an_invalidated_row_is_readmitted_on_its_next_read(self, full, batched):
        assert full.invalidate([1]) == 1 and full._asked[1]
        _read(full, 6, batched)  # fits: the cache is full again
        assert list(full._rows) == [0, 6] and full._charged == 6
        row = _read(full, 1, batched)
        assert row is full._rows[1] and list(full._rows) == [6, 1]
        assert (full.refused, full.evictions, full.invalidations) == (0, 1, 1)

    @pytest.mark.parametrize("key", [-1, -10, 10, 99])
    def test_a_bad_key_raises_and_leaves_the_marks_alone(self, store, batched, key):
        # rows in a Python list do no range check of their own: -1 would
        # be the last row, and its mark the last node's
        cache = RowCache(ListStore([store.neighbors(u) for u in range(10)]), 6)
        cache.neighbor_rows([0, 1, 9])  # full: the last node is refused and marked
        assert cache._asked[-1]
        marks, counters = cache._asked.copy(), cache.stats()
        with pytest.raises(QueryError):
            if batched:
                cache.neighbor_rows([2, key])
            else:
                cache.neighbors(key)
        assert np.array_equal(cache._asked, marks) and cache.stats() == counters


def test_memory_bytes_counts_the_marks(store):
    cache = RowCache(store, 6)
    assert cache._asked.nbytes == store.num_nodes
    assert cache.memory_bytes() == store.memory_bytes() + store.num_nodes
    cache.neighbor_rows([0, 9])
    assert cache.memory_bytes() == (
        store.memory_bytes() + store.num_nodes + 3 * cache.row_dtype.itemsize)


def test_clear_resets_the_marks(full):
    full.neighbor_rows([2, 3])
    assert full.refused == 2 and full._asked.sum() == 2
    full.clear()
    assert not full._asked.any() and full._window == 0
    assert full.stats().refused == 0
    # a first touch on a full cache is refused again after refilling
    full.neighbor_rows([0, 1, 2])
    assert 2 not in full._rows and full.refused == 1


def test_refused_is_rendered_and_exported(store):
    server = GraphQueryServer(store, config=ServerConfig(cache_elements=6))
    for u in (0, 1, 2):
        server.submit(NeighborsRequest(node=u))
        server.drain()
    assert server.row_cache.stats().refused == 1
    assert "refused" in render_cache_stats(server.row_cache)
    registry = MetricsRegistry()
    register_server(registry, server)
    assert registry.snapshot()["server.cache"]["refused"] == 1


def test_a_batch_repeating_a_refused_key_counts_each_lookup(full):
    rows = full.neighbor_rows([2, 2, 3])
    assert rows[0] is rows[1] and full.refused == 3
    assert 2 not in full._rows and 3 not in full._rows


# -- the property: replies, budget and counters under random streams ---------

@st.composite
def streams(draw):
    """A graph with empty rows and a stream of batch reads, scalar reads
    and invalidations over it."""
    n = draw(st.integers(1, 30))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=120))
    empty = draw(st.sets(ids, max_size=n))  # rows forced empty
    edges = [(u, v) for u, v in edges if u not in empty]
    src = np.asarray([u for u, _ in edges], dtype=np.int64)
    dst = np.asarray([v for _, v in edges], dtype=np.int64)
    op = st.one_of(
        st.tuples(st.just("batch"), st.lists(ids, max_size=16)),
        st.tuples(st.just("scalar"), ids),
        st.tuples(st.just("invalidate"), st.lists(ids, max_size=4)),
    )
    return src, dst, n, draw(st.lists(op, min_size=1, max_size=40))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=streams())
@pytest.mark.parametrize("capacity", [1, 7, 64, 10**6])
@pytest.mark.parametrize("packed", [False, True], ids=["csr", "packed"])
def test_replies_budget_and_counters_hold_on_any_stream(packed, capacity, stream):
    src, dst, n, ops = stream
    store = build_csr_serial(*ensure_sorted(src, dst), n)
    if packed:
        store = BitPackedCSR.from_csr(store)
    cache = RowCache(store, capacity)
    looked_up = 0
    for kind, arg in ops:
        before = cache.stats()
        if kind == "invalidate":
            cache.invalidate(arg)
            replies, keys = [], []
        elif kind == "batch":
            replies, keys = cache.neighbor_rows(arg), arg
        else:
            replies, keys = [cache.neighbors(arg)], [arg]
        looked_up += len(keys)
        for u, got in zip(keys, replies):
            want = store.neighbors(u)
            assert got.dtype == cache.row_dtype and np.array_equal(got, want)
            assert not got.flags.writeable
        after = cache.stats()
        assert cache._charged <= capacity
        assert after.hits + after.misses == looked_up
        admitted = (after.misses - before.misses) - (after.refused - before.refused)
        assert after.evictions == before.evictions or admitted > 0
