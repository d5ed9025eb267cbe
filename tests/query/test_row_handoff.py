"""The zero-copy row handoff between ``RowCache`` and the query kernels.

A cache hit is handed to the kernels — and on to the caller — as the
resident row itself; the edge kernel searches long rows where they lie.
None of that may change an answer or a ``Cost`` charge; a reply has the
cache's ``row_dtype`` (the id width), not the wrapped store's.  The LRU
policy and its counters follow one reference model.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import open_store
from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.packed import BitPackedCSR
from repro.obs import Tracer
from repro.parallel import SimulatedMachine
from repro.query import QueryEngine, RowCache, capabilities
from repro.query import edges as edge_kernel
from repro.query.stores import join_rows


def _csr(src, dst, n):
    return build_csr_serial(*ensure_sorted(src, dst), n)


STORES = {
    "csr": _csr,
    "packed": lambda src, dst, n: BitPackedCSR.from_csr(_csr(src, dst, n)),
}


@st.composite
def hub_batches(draw):
    """A graph with one hub, short rows and empty rows, plus a node lane
    and an edge lane that both repeat keys and both hit the hub."""
    n = draw(st.integers(4, 24))
    ids = st.integers(0, n - 1)
    hub = draw(ids)
    fan = draw(st.lists(ids, min_size=8, max_size=40))
    tail = draw(st.lists(st.tuples(ids, ids), max_size=30))
    src = np.asarray([hub] * len(fan) + [u for u, _ in tail], dtype=np.int64)
    dst = np.asarray(fan + [v for _, v in tail], dtype=np.int64)
    nodes = np.asarray(draw(st.lists(ids, max_size=20)) + [hub, hub], dtype=np.int64)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=20)) + [(hub, fan[0]), (hub, 0)]
    # the hub (> capacity) is served but never cached; the rest evict
    capacity = draw(st.sampled_from([0, len(fan) - 1, 3 * n, 10_000]))
    return src, dst, n, nodes, np.asarray(pairs, dtype=np.int64), capacity


def _phases(store, nodes, edges, p, method, prefetch):
    """Replies and the ``(label, Cost)`` of every phase of one mixed
    batch, run the way the serve loop runs it (or as two plain calls)."""
    machine = SimulatedMachine(p)
    machine.tracer = Tracer()
    engine = QueryEngine(store, machine)
    if prefetch:
        rows, fetched = engine.neighbors(nodes, prefetch=np.unique(edges[:, 0]))
        exists = engine.has_edges(edges, method=method, rows=fetched)
    else:
        rows = engine.neighbors(nodes)
        exists = engine.has_edges(edges, method=method)
    costs = [(s.name, s.cost) for s in machine.tracer.spans() if not s.cost.is_zero()]
    return rows, exists, costs


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batch=hub_batches())
@pytest.mark.parametrize("prefetch", [False, True], ids=["two-calls", "fused"])
@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("method", ["scan", "bisect"])
@pytest.mark.parametrize("in_place_min", [4, 512], ids=["long+short", "all-short"])
@pytest.mark.parametrize("store_name", sorted(STORES))
def test_engine_over_cache_equals_engine_over_store(
        store_name, in_place_min, method, p, prefetch, batch):
    src, dst, n, nodes, edges, capacity = batch
    store = STORES[store_name](src, dst, n)
    # the cache bills array reads where a packed store bills field
    # widths: same elements, one constant apart
    width = capabilities(store).decode_bits
    # every edge chunk searched probe by probe, then every one keyed
    for small_chunk in (float("inf"), 0):
        cache = RowCache(store, capacity)
        with mock.patch.object(edge_kernel, "_IN_PLACE_MIN", in_place_min), \
                mock.patch.object(edge_kernel, "_SMALL_CHUNK", small_chunk):
            want_rows, want_exists, want_costs = _phases(
                store, nodes, edges, p, method, prefetch)
            for _ in range(2):  # cold, then (partly) resident
                rows, exists, costs = _phases(cache, nodes, edges, p, method, prefetch)
                assert len(rows) == len(want_rows)
                for got, want in zip(rows, want_rows):
                    assert got.dtype == cache.row_dtype and np.array_equal(got, want)
                assert exists.dtype == np.bool_ and np.array_equal(exists, want_exists)
                assert [label for label, _ in costs] == [label for label, _ in want_costs]
                for (_, got), (_, want) in zip(costs, want_costs):
                    assert (got.reads, got.writes, got.page_touches) == (
                        want.reads, want.writes, want.page_touches)
                    assert got.bit_ops * width == want.bit_ops


@pytest.fixture()
def hubby(rng):
    """Two rows long enough for the in-place search, many short rows,
    and isolated nodes."""
    n = 400
    src = np.concatenate([np.zeros(900, np.int64), np.ones(600, np.int64),
                          rng.integers(2, 300, 2000)])
    dst = rng.integers(0, n, src.shape[0])
    return BitPackedCSR.from_csr(_csr(src, dst, n)), n


def test_long_rows_at_the_real_threshold(hubby, rng, monkeypatch):
    # every chunk keyed, so the in-place cut is what decides
    monkeypatch.setattr(edge_kernel, "_SMALL_CHUNK", 0)
    store, n = hubby
    assert store.degree(0) >= edge_kernel._IN_PLACE_MIN > store.degree(2)
    cache = RowCache(store, 100_000)
    edges = np.stack([rng.integers(0, 6, 300), rng.integers(0, n, 300)], axis=1)
    edges[:50] = np.stack([np.zeros(50), store.neighbors(0)[:50]], axis=1)  # planted
    for method in ("scan", "bisect"):
        want = _phases(store, edges[:, 0], edges, 1, method, True)
        got = _phases(cache, edges[:, 0], edges, 1, method, True)
        assert np.array_equal(got[1], want[1]) and got[1][:50].all()
        assert [c.reads for _, c in got[2]] == [c.reads for _, c in want[2]]


class TestZeroCopy:
    def test_every_hit_is_the_resident_row(self, hubby, rng):
        store, n = hubby
        cache = RowCache(store, 100_000)
        keys = rng.integers(0, n, 200)
        cache.neighbors_batch(keys)  # make them resident
        misses = cache.misses
        real = np.concatenate
        with mock.patch.object(np, "concatenate", side_effect=real) as joined:
            rows, (sources, held, offsets) = QueryEngine(cache).neighbors(
                keys, prefetch=np.unique(keys[:40]))
        assert cache.misses == misses
        for u, row in zip(keys.tolist(), rows):
            assert row is cache._rows[u]
        assert all(row is cache._rows[u] for u, row in zip(sources.tolist(), held))
        assert offsets is None  # resident rows: no decode buffer
        # the only concatenation joined key arrays, never row payload
        resident = {id(row) for row in cache._rows.values()}
        for call in joined.call_args_list:
            assert not any(id(part) in resident for part in call.args[0])

    def test_a_resident_row_is_copied_only_when_that_is_cheaper(
            self, hubby, rng, monkeypatch):
        """In place costs a numpy call per query on the row, a copy its
        length: 900- and 600-element rows are searched where they lie
        for one query each, and joined once for 32 each (every chunk
        keyed: a few-probe chunk never joins)."""
        monkeypatch.setattr(edge_kernel, "_SMALL_CHUNK", 0)
        store, n = hubby
        cache = RowCache(store, 100_000)
        cache.neighbors_batch([0, 1])
        real = np.concatenate
        for per_row, joins in ((1, 0), (32, 1)):
            edges = np.stack([np.repeat([0, 1], per_row),
                              rng.integers(0, n, 2 * per_row)], axis=1)
            with mock.patch.object(np, "concatenate", side_effect=real) as joined:
                got = QueryEngine(cache).has_edges(edges, method="bisect")
            assert joined.call_count == joins
            assert got.tolist() == [store.has_edge(int(u), int(v)) for u, v in edges]

    def test_neighbors_batch_is_the_row_list_concatenated(self, hubby, rng):
        store, n = hubby
        cache = RowCache(store, 100_000)
        keys = rng.integers(0, n, 60)
        flat, offsets = cache.neighbors_batch(keys)
        rows = cache.neighbor_rows(keys)
        for got, want in zip(join_rows(rows, cache.row_dtype), (flat, offsets)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert all(np.array_equal(flat[a:b], row)
                   for a, b, row in zip(offsets, offsets[1:], rows))


class TestReadOnlyResidency:
    def test_writing_into_a_reply_raises(self, hubby):
        store, _ = hubby
        cache = RowCache(store, 100_000)
        for reply in (cache.neighbors(0), cache.neighbors(0),
                      QueryEngine(cache).neighbors([0])[0],
                      cache.neighbors(399)):  # the shared empty row
            assert not reply.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                reply[:1] = 7
        flat, _ = cache.neighbors_batch([0, 2])
        flat[0] = flat[0]  # a concatenation is the caller's own

    def test_reply_outlives_invalidate_and_eviction(self, hubby):
        store, _ = hubby
        cache = RowCache(store, store.degree(0) + store.degree(1))
        before = QueryEngine(cache).neighbors([0])[0]
        kept = before.copy()
        cache.invalidate([0])
        assert 0 not in cache._rows and np.array_equal(before, kept)
        again = cache.neighbors(0)
        assert again is not before and np.array_equal(again, kept)
        cache.neighbors(1)
        # over budget: the first touch of row 2 is refused, the second
        # is admitted and evicts row 0
        cache.neighbors(2)
        cache.neighbors(2)
        assert 0 not in cache._rows and cache.evictions >= 1
        assert np.array_equal(again, kept)

    def test_reply_keeps_pre_write_contents_after_an_lsm_write(self, sorted_edges):
        from repro.serve import GraphQueryServer, NeighborsRequest, ServerConfig, WriteRequest

        src, dst, n = sorted_edges
        lsm = open_store("lsm", src, dst, n)
        server = GraphQueryServer(lsm, config=ServerConfig(cache_elements=10_000))

        def read(u):
            slot = server.submit(NeighborsRequest(node=u))
            server.drain()
            return slot.result()

        before = read(5)
        kept = before.copy()
        missing = next(v for v in range(n) if not lsm.has_edge(5, v))
        assert server.submit(WriteRequest(op="insert", u=5, v=missing)).result()
        after = read(5)
        assert np.array_equal(before, kept) and missing not in before.tolist()
        assert missing in after.tolist() and after.shape[0] == kept.shape[0] + 1


# -- the LRU policy and its counters follow one reference model --------------

def _trace_graph(ring: bool):
    rng = np.random.default_rng(2024)
    n = 600
    src = np.minimum(rng.zipf(1.3, 3000) - 1, n - 1)
    dst = rng.integers(0, n, 3000)
    if ring:  # one out-edge per node: no empty rows
        src = np.concatenate([src, np.arange(n)])
        dst = np.concatenate([dst, (np.arange(n) + 1) % n])
    return _csr(src, dst, n)


def _trace(n):
    """The recorded trace: 5,000 Zipf(1.2) keys in 40 batches, the six
    hottest-ish rows invalidated after every eighth batch."""
    keys = np.minimum(np.random.default_rng(7).zipf(1.2, 5000) - 1, n - 1)
    for b, batch in enumerate(np.split(keys, 40)):
        yield batch.tolist(), [0, 1, 2, 3, 5, 8] if b % 8 == 7 else []


def _replay(cache):
    for batch, stale in _trace(cache.num_nodes):
        cache.neighbors_batch(batch)
        cache.invalidate(stale)
    s = cache.stats()
    return s.hits, s.misses, s.evictions, s.invalidations


def _lru_model(degree, n, capacity, *, empty_rows_resident, second_touch):
    """Reference element-budget LRU (hits first, then the batch's
    distinct misses in first-seen order).  Without *empty_rows_resident*
    an empty row is never kept; with it, it is kept at a charge of one
    element.  Without *second_touch* every miss that fits the budget is
    admitted (the policy before admission); with it, a miss that would
    evict is admitted only when asked for once before in the window —
    one capacity of refused charges — and an invalidated row counts as
    asked once."""
    resident: dict[int, int] = {}  # node -> charge, oldest first
    asked: set[int] = set()
    window = 0
    hits = misses = evictions = invalidations = 0
    for batch, stale in _trace(n):
        missing = []
        for u in batch:
            if u in resident:
                hits += 1
                resident[u] = resident.pop(u)
            else:
                misses += 1
                missing.append(u)
        for u in dict.fromkeys(missing):
            charge = degree[u] or (1 if empty_rows_resident else 0)
            if not 0 < charge <= capacity:
                continue
            full = sum(resident.values()) + charge > capacity
            if second_touch and full and u not in asked:
                asked.add(u)
                window += charge
                if window > capacity:
                    asked.clear()
                    window = 0
                continue
            asked.discard(u)
            resident[u] = charge
            while sum(resident.values()) > capacity:
                resident.pop(next(iter(resident)))
                evictions += 1
        for u in stale:
            if resident.pop(u, None) is not None:
                invalidations += 1
                if second_touch:
                    asked.add(u)
    return hits, misses, evictions, invalidations


#: measured on the parent of second-touch admission (7c19f2a), which
#: admitted every miss that fit, with this very trace: the ring graph,
#: and the graph with empty rows
PARENT_RING = (2725, 2275, 1217, 22)
PARENT_EMPTY_ROWS = (2742, 2258, 1215, 21)
#: the graph with empty rows before they became resident (f555a5a)
PARENT_EMPTY_ROWS_UNCACHED = (2737, 2263, 951, 21)
#: this cache on the same trace
PINNED_RING = (2929, 2071, 811, 21)
PINNED_EMPTY_ROWS = (2874, 2126, 825, 24)


def test_counters_pinned_to_the_parent_on_a_recorded_trace():
    """The parent read (2725, 2275, 1217, 22): the plain-LRU model still
    reproduces it, and the cache is the model with second-touch
    admission."""
    graph = _trace_graph(ring=True)
    degree = np.diff(graph.indptr).tolist()
    assert min(degree) > 0
    assert _lru_model(degree, 600, 2000, empty_rows_resident=True,
                      second_touch=False) == PARENT_RING
    got = _replay(RowCache(graph, 2000))
    assert got == _lru_model(degree, 600, 2000, empty_rows_resident=True, second_touch=True)
    assert got == PINNED_RING


def test_empty_row_residency_is_the_only_counter_change():
    """The parent read (2742, 2258, 1215, 21), and (2737, 2263, 951, 21)
    before empty rows were resident: the model reproduces both, and the
    cache is the model with empty rows and second-touch admission."""
    graph = _trace_graph(ring=False)
    degree = np.diff(graph.indptr).tolist()
    assert degree.count(0) == 307
    # the model reproduces the older numbers with empty rows left out ...
    assert _lru_model(degree, 600, 2000, empty_rows_resident=False,
                      second_touch=False) == PARENT_EMPTY_ROWS_UNCACHED
    # ... the parent's once they are resident at one element each ...
    assert _lru_model(degree, 600, 2000, empty_rows_resident=True,
                      second_touch=False) == PARENT_EMPTY_ROWS
    # ... and the cache's under second-touch admission
    got = _replay(RowCache(graph, 2000))
    assert got == _lru_model(degree, 600, 2000, empty_rows_resident=True, second_touch=True)
    assert got == PINNED_EMPTY_ROWS


def test_memory_bytes_is_the_sum_over_resident_rows(hubby, rng):
    store, n = hubby
    cache = RowCache(store, 3000)
    for _ in range(5):
        cache.neighbors_batch(rng.integers(0, n, 100))
        cache.invalidate(rng.integers(0, n, 10))
        assert cache.memory_bytes() - store.memory_bytes() == n + sum(
            row.nbytes for row in cache._rows.values())  # + one state byte per node
