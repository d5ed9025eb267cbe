"""One store read for both query lanes — the fused row fetch.

``batch_neighbors(..., prefetch=sources)`` fetches the edge lane's
source rows on the neighbour kernel's own store read and hands them to
``batch_edge_existence(..., rows=...)``.  The pair must return exactly
what the two independent calls return, charge the simulated machine
exactly the same (page touches aside), read the store once, and add no
pass over row payload.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import AdjacencyListStore, EdgeListStore
from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.packed import BitPackedCSR
from repro.disk import DiskStore, write_disk_store
from repro.errors import QueryError
from repro.obs import Tracer
from repro.parallel import SerialExecutor, SimulatedMachine
from repro.query import RowCache, batch_edge_existence, batch_neighbors
from repro.query.stores import distinct_keys, expand_rows
from tests.conftest import CountingStore


def _csr(src, dst, n):
    return build_csr_serial(*ensure_sorted(src, dst), n)


STORE_BUILDERS = {
    "csr": _csr,
    "packed": lambda src, dst, n: BitPackedCSR.from_csr(_csr(src, dst, n)),
    "gap": lambda src, dst, n: BitPackedCSR.from_csr(_csr(src, dst, n), gap_encode=True),
    "adjlist": lambda src, dst, n: AdjacencyListStore(*ensure_sorted(src, dst), n),
    "edgelist": lambda src, dst, n: EdgeListStore(*ensure_sorted(src, dst), n),
}

EXECUTORS = [
    ("serial", lambda: SerialExecutor()),
    ("sim-p1", lambda: SimulatedMachine(1)),
    ("sim-p4", lambda: SimulatedMachine(4)),
]


@st.composite
def mixed_batches(draw):
    """A small graph (so rows repeat, some are empty, and the two lanes
    share nodes) plus a node lane and an edge lane, either possibly
    empty, both with duplicates."""
    n = draw(st.integers(1, 16))
    m = draw(st.integers(0, 60))
    ids = st.integers(0, n - 1)
    src = np.asarray(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64)
    dst = np.asarray(draw(st.lists(ids, min_size=m, max_size=m)), dtype=np.int64)
    nodes = np.asarray(draw(st.lists(ids, max_size=30)), dtype=np.int64)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=30))
    edges = np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)
    return src, dst, n, nodes, edges


def fused(store, nodes, edges, executor, method="scan"):
    rows, fetched = batch_neighbors(
        store, nodes, executor, prefetch=np.unique(edges[:, 0]))
    return rows, batch_edge_existence(
        store, edges, executor, method=method, rows=fetched)


def two_calls(store, nodes, edges, executor, method="scan"):
    return (batch_neighbors(store, nodes, executor),
            batch_edge_existence(store, edges, executor, method=method))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batch=mixed_batches())
@pytest.mark.parametrize("method", ["scan", "bisect"])
@pytest.mark.parametrize("exec_name,make_executor", EXECUTORS,
                         ids=[e[0] for e in EXECUTORS])
@pytest.mark.parametrize("store_name", sorted(STORE_BUILDERS))
def test_fused_equals_two_calls(store_name, exec_name, make_executor, method, batch):
    src, dst, n, nodes, edges = batch
    store = STORE_BUILDERS[store_name](src, dst, n)
    got_rows, got_exists = fused(store, nodes, edges, make_executor(), method)
    want_rows, want_exists = two_calls(store, nodes, edges, make_executor(), method)
    assert len(got_rows) == len(want_rows)
    for got, want in zip(got_rows, want_rows):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert got_exists.dtype == np.bool_
    assert np.array_equal(got_exists, want_exists)


def phase_spans(machine):
    """Every phase of a traced run: kind, label, Cost, virtual stamps
    and imbalance."""
    return [(s.layer, s.name, s.cost, s.start_ns, s.end_ns, s.meta)
            for s in machine.tracer.spans()]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batch=mixed_batches())
@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("store_name", sorted(STORE_BUILDERS))
def test_fused_charges_equal_two_calls(store_name, p, batch):
    """Same phases, same labels, same per-phase Cost, same clock: each
    query is still billed its own row decode."""
    src, dst, n, nodes, edges = batch
    store = STORE_BUILDERS[store_name](src, dst, n)
    one, two = SimulatedMachine(p), SimulatedMachine(p)
    one.tracer, two.tracer = Tracer(), Tracer()
    fused(store, nodes, edges, one)
    two_calls(store, nodes, edges, two)
    assert one.elapsed_ns() == two.elapsed_ns()
    assert phase_spans(one) == phase_spans(two)


@pytest.fixture()
def skewed(rng):
    n, m = 300, 6000
    src = np.minimum(rng.zipf(1.3, m) - 1, n - 1)
    dst = rng.integers(0, n, m)
    src, dst = ensure_sorted(src, dst)
    return src, dst, n


def test_disk_page_touches_fused_at_most_two_reads(skewed, tmp_path, rng):
    src, dst, n = skewed
    write_disk_store(BitPackedCSR.from_csr(build_csr_serial(src, dst, n)),
                     tmp_path / "g").close()
    nodes = rng.integers(0, n, 120)
    edges = np.stack([rng.integers(0, n, 60), rng.integers(0, n, 60)], axis=1)
    totals = []
    for run in (fused, two_calls):
        with DiskStore.open(tmp_path / "g") as store:
            machine = SimulatedMachine(1)
            machine.tracer = Tracer()
            run(store, nodes, edges, machine)
            totals.append([s.cost for s in machine.tracer.spans()
                           if not s.cost.is_zero()])
    (f_nb, f_ed), (t_nb, t_ed) = totals
    # the fused read's pages land on the neighbour phase, none on edges
    assert f_ed.page_touches == 0 and t_ed.page_touches > 0
    assert 0 < f_nb.page_touches + f_ed.page_touches <= t_nb.page_touches + t_ed.page_touches
    # every other channel is untouched by the fusion
    for got, want in ((f_nb, t_nb), (f_ed, t_ed)):
        assert (got.reads, got.writes, got.bit_ops) == (want.reads, want.writes, want.bit_ops)


def test_one_read_with_each_key_once(skewed):
    src, dst, n = skewed
    store = CountingStore(BitPackedCSR.from_csr(build_csr_serial(src, dst, n)))
    nodes = np.array([5, 0, 7, 5, 2], dtype=np.int64)
    edges = np.array([(0, 1), (2, 3), (9, 0), (0, 4)], dtype=np.int64)
    fused(store, nodes, edges, SerialExecutor())
    assert len(store.calls) == 1
    # edge sources first (the zero-copy prefix), then the queries that
    # are not among them — a key wanted by both lanes is fetched once
    assert store.calls[0].tolist() == [0, 2, 9, 5, 7, 5]
    store.calls.clear()
    two_calls(store, nodes, edges, SerialExecutor())
    assert len(store.calls) == 2


def test_row_cache_counts_shared_key_once(skewed):
    src, dst, n = skewed
    cache = RowCache(BitPackedCSR.from_csr(build_csr_serial(src, dst, n)), 10_000)
    fused(cache, np.array([3, 8]), np.array([(3, 1), (4, 2)]), SerialExecutor())
    stats = cache.stats()
    assert stats.hits + stats.misses == 3  # {3, 4} ∪ {3, 8}


def test_replies_are_views_of_one_buffer(skewed):
    src, dst, n = skewed
    store = BitPackedCSR.from_csr(build_csr_serial(src, dst, n))
    nodes = np.array([0, 1, 2, 0, 40], dtype=np.int64)
    edges = np.array([(1, 0), (3, 3)], dtype=np.int64)
    rows, (sources, flat, offsets) = batch_neighbors(
        store, nodes, prefetch=np.unique(edges[:, 0]))
    buffer = flat.base if flat.base is not None else flat
    assert sources.tolist() == [1, 3]
    assert all(row.base is buffer for row in rows)
    # node 1 is in both lanes: its reply *is* the prefix row
    assert np.shares_memory(rows[1], flat[offsets[0]:offsets[1]])


def test_no_extra_payload_pass(skewed):
    """Peak traced memory of a hub-heavy batch (the hubs wanted by both
    lanes) stays within the two-call path's: no lane's rows are copied
    out of the fused buffer."""
    src, dst, n = skewed
    store = build_csr_serial(src, dst, n)
    hubs = np.argsort(-np.diff(store.indptr))[:40].astype(np.int64)
    edges = np.stack([hubs, hubs[::-1]], axis=1)

    def peak(run):
        tracemalloc.start()
        try:
            kept = run(store, hubs, edges, SerialExecutor())
            return tracemalloc.get_traced_memory()[1], kept
        finally:
            tracemalloc.stop()

    peak(fused)  # warm both paths' lazy allocations
    peak(two_calls)
    assert peak(fused)[0] <= peak(two_calls)[0]


class TestContract:
    @pytest.fixture()
    def store(self, skewed):
        src, dst, n = skewed
        return CountingStore(BitPackedCSR.from_csr(build_csr_serial(src, dst, n)))

    def test_absent_prefetch_keeps_the_plain_return(self, store):
        rows = batch_neighbors(store, [1, 2])
        assert isinstance(rows, list) and len(rows) == 2

    def test_empty_prefetch_is_the_plain_fetch(self, store):
        rows, (sources, flat, offsets) = batch_neighbors(store, [4, 1], prefetch=[])
        assert store.calls[0].tolist() == [4, 1]
        assert sources.size == 0 and flat.size == 0 and offsets.tolist() == [0]
        exists = batch_edge_existence(store, [(4, 0)], rows=(sources, flat, offsets))
        assert len(store.calls) == 2  # nothing prefetched: the kernel reads
        assert exists[0] == store.has_edge(4, 0)

    def test_prefetch_with_no_queries_still_fetches(self, store):
        rows, (sources, flat, offsets) = batch_neighbors(store, [], prefetch=[2, 6])
        assert rows == [] and sources.tolist() == [2, 6]
        assert np.array_equal(flat[offsets[1]:offsets[2]], store.neighbors(6))

    @pytest.mark.parametrize("p", [1, 3])
    def test_uncovered_chunk_fetches_its_own_sources(self, store, p):
        _, fetched = batch_neighbors(store, [0], prefetch=[2, 6])
        store.calls.clear()
        edges = np.array([(2, 1), (7, 0), (6, 2), (2, 5)], dtype=np.int64)
        got = batch_edge_existence(store, edges, SimulatedMachine(p), rows=fetched)
        want = [store.has_edge(int(u), int(v)) for u, v in edges]
        assert got.tolist() == want
        assert any(7 in call.tolist() for call in store.calls)

    @pytest.mark.parametrize("bad", [[3, 3], [5, 2], [-1, 2], [0, 10**6]])
    def test_bad_prefetch_is_rejected_before_any_read(self, store, bad):
        with pytest.raises(QueryError, match="strictly increasing"):
            batch_neighbors(store, [1], prefetch=bad)
        assert store.calls == []

    def test_malformed_rows_are_rejected(self, store):
        flat, offs = np.zeros(3, np.uint64), np.array([0, 1, 3])
        for rows in (([2, 1], flat, offs), ([1], flat, offs), ([1, 2], flat[:2], offs)):
            with pytest.raises(QueryError, match="prefetched rows"):
                batch_edge_existence(store, [(1, 0)], rows=rows)


@settings(max_examples=50, deadline=None)
@given(keys=st.lists(st.integers(0, 12), max_size=25),
       lengths=st.lists(st.integers(0, 4), min_size=13, max_size=13))
def test_distinct_then_expand_round_trips(keys, lengths):
    """The wrappers' shared dedup pair: rows of the distinct keys,
    expanded, equal the rows of the batch."""
    keys = np.asarray(keys, dtype=np.int64)
    table = [np.arange(k * 10, k * 10 + lengths[k]) for k in range(13)]
    uniq, inverse = distinct_keys(keys)
    assert np.array_equal(uniq, np.unique(keys))
    increasing = bool(np.all(np.diff(keys) > 0))
    assert (inverse is None) == increasing
    offsets = np.zeros(uniq.size + 1, dtype=np.int64)
    np.cumsum([lengths[k] for k in uniq], out=offsets[1:])
    flat = np.concatenate([table[k] for k in uniq] + [np.zeros(0, dtype=np.int64)])
    got_flat, got_offsets = expand_rows(flat, offsets, inverse)
    if inverse is None:
        assert got_flat is flat and got_offsets is offsets
    want = [table[k] for k in keys]
    assert np.array_equal(np.diff(got_offsets), [len(r) for r in want])
    assert np.array_equal(got_flat, np.concatenate(want + [np.zeros(0, dtype=np.int64)]))
