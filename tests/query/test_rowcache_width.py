"""A ``RowCache`` holds and hands out its rows at the id width.

Whatever the wrapped store decodes to (``uint64`` packed, ``int64``
CSR or LSM), every row the cache holds or replies with has
``cache.row_dtype``: the narrowest unsigned dtype holding
``num_nodes - 1``.  Values, read-only residency, the memory charge and
the edge probes on the top id are what they were at the store's width.
"""

import numpy as np
import pytest

from repro import open_store
from repro.algorithms import run
from repro.cluster.build import extract_edges
from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.packed import BitPackedCSR
from repro.parallel import SimulatedMachine
from repro.query import QueryEngine, RowCache, capabilities
from repro.query import edges as edge_kernel


def _graph(n):
    """Row 0 a hub holding the top id ``n - 1``, rows 1 and 2 short (row
    1 ending one short of the top), row 3 empty, and a sparse tail."""
    top = n - 1
    hub = np.unique(np.r_[np.linspace(0, top, 40).astype(np.int64), top])
    src = np.r_[np.zeros(hub.shape[0], np.int64), [1, 1, 1, 2, 2],
                np.arange(4, n, max(1, n // 50))]
    dst = np.r_[hub, [0, 7, top - 1], [3, top], np.arange(4, n, max(1, n // 50)) % n]
    return (*ensure_sorted(src, dst), n)


def _csr(src, dst, n):
    return build_csr_serial(src, dst, n)


INNER = {
    "packed": (lambda src, dst, n: BitPackedCSR.from_csr(_csr(src, dst, n)), np.uint64),
    "csr": (_csr, np.int64),
    "lsm": (lambda src, dst, n: open_store("lsm", src, dst, n), np.int64),
}

WIDTHS = [(256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)]


@pytest.fixture(params=sorted(INNER))
def inner(request):
    return request.param


@pytest.mark.parametrize("n, width", WIDTHS, ids=[str(n) for n, _ in WIDTHS])
def test_row_dtype_is_the_id_width(inner, n, width):
    build, store_dtype = INNER[inner]
    store = build(*_graph(n))
    assert store.row_dtype == store_dtype
    cache = RowCache(store, 64)
    assert cache.row_dtype == np.dtype(width)
    assert capabilities(cache).row_dtype == np.dtype(width)


@pytest.mark.parametrize("n", [256, 65_537])
def test_every_reply_has_the_cache_width(inner, n):
    store = INNER[inner][0](*_graph(n))
    hub = store.degree(0)
    # the hub is admitted, row 1 then finds the budget full and is refused
    cache = RowCache(store, hub + 2)
    first = cache.neighbors(0)
    hit = cache.neighbors(0)
    refused = cache.neighbors(1)
    empty = cache.neighbors(3)
    assert hit is first and cache.hits == 1
    assert cache.refused == 1 and 1 not in cache._rows
    flat, offsets = cache.neighbors_batch([0, 1, 3, 2, 0])
    for reply in (hit, refused, empty, flat):
        assert reply.dtype == cache.row_dtype
    for reply in (hit, refused, empty):
        assert not reply.flags.writeable
    assert empty.shape == (0,)
    for u, reply in ((0, hit), (1, refused), (3, empty)):
        assert np.array_equal(reply, store.neighbors(u))
    want = store.neighbors_batch([0, 1, 3, 2, 0])
    assert np.array_equal(flat, want[0]) and np.array_equal(offsets, want[1])
    # the joined payload is a copy: writing into it reaches no resident row
    flat[:] = 0
    assert np.array_equal(cache.neighbors(0), store.neighbors(0))


@pytest.mark.parametrize("n", [256, 257, 65_537])
def test_memory_charges_the_id_width(inner, n):
    store = INNER[inner][0](*_graph(n))
    cache = RowCache(store, 2 * n)  # every row resident, empty ones too
    cache.neighbors_batch(np.arange(n))
    elements = cache.stats().elements
    assert elements == store.num_edges
    assert cache.memory_bytes() == (
        store.memory_bytes() + elements * cache.row_dtype.itemsize + n)


@pytest.mark.parametrize("resident", [False, True], ids=["cold", "resident"])
def test_probes_on_the_top_id_do_not_wrap(inner, chunk_regime, resident):
    n = 256
    src, dst, _ = _graph(n)
    store = INNER[inner][0](src, dst, n)
    cache = RowCache(store, 10_000)
    assert cache.row_dtype == np.uint8
    if resident:
        cache.neighbors_batch(np.arange(n))
    top = n - 1
    pairs = np.array([[0, top], [1, top], [2, top], [3, top], [1, top - 1],
                      [0, 0], [4, top], [top, top], [2, 3]], dtype=np.int64)
    want = [store.has_edge(int(u), int(v)) for u, v in pairs]
    assert want[:5] == [True, False, True, False, True]
    for p in (1, 3):
        engine = QueryEngine(cache, SimulatedMachine(p))
        for method in ("scan", "bisect"):
            assert engine.has_edges(pairs, method=method).tolist() == want
    assert cache.has_edge(0, top) and not cache.has_edge(1, top)


def test_long_resident_uint8_row_searched_in_place(monkeypatch):
    # a resident row past the in-place cut is searched where it lies
    monkeypatch.setattr(edge_kernel, "_SMALL_CHUNK", 0)
    monkeypatch.setattr(edge_kernel, "_IN_PLACE_MIN", 8)
    n = 256
    store = BitPackedCSR.from_csr(_csr(*_graph(n)))
    cache = RowCache(store, 10_000)
    cache.neighbors_batch(np.arange(n))
    pairs = np.array([[0, n - 1], [0, n - 2], [1, n - 1], [0, 0]], dtype=np.int64)
    want = [store.has_edge(int(u), int(v)) for u, v in pairs]
    assert QueryEngine(cache).has_edges(pairs, method="bisect").tolist() == want


@pytest.mark.parametrize("name", ["bfs", "pagerank", "triangles"])
def test_analytics_over_uint8_rows_match_the_store(name):
    # the consumers of cached rows widen before any arithmetic
    n = 256
    src, dst, _ = _graph(n)
    src, dst = ensure_sorted(np.r_[src, dst], np.r_[dst, src])  # symmetric: triangles close
    store = BitPackedCSR.from_csr(_csr(src, dst, n))
    cache = RowCache(store, 2 * n)
    cache.neighbors_batch(np.arange(n))
    assert cache.row_dtype == np.uint8
    want = run(name, store, SimulatedMachine(2))
    got = run(name, cache, SimulatedMachine(2))
    assert np.array_equal(np.asarray(got.value), np.asarray(want.value))
    assert got.rounds == want.rounds


def test_cluster_edge_extraction_widens_uint8_rows():
    n = 256
    src, dst, _ = _graph(n)
    cache = RowCache(BitPackedCSR.from_csr(_csr(src, dst, n)), 2 * n)
    cache.neighbors_batch(np.arange(n))
    got_src, got_dst = extract_edges(cache)
    assert got_dst.dtype == np.int64
    assert got_src.tolist() == src.tolist() and got_dst.tolist() == dst.tolist()
