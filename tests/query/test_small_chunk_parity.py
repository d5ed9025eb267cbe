"""Few-probe chunks through the engine: the per-probe search changes no
reply and no charge.

A chunk of at most ``_SMALL_CHUNK`` edge probes answers each probe with
one ``searchsorted`` in its own fetched row; a larger chunk keys every
fetched row into one payload (the ``chunk_regime`` fixture in
``tests/conftest.py`` forces one path or the other).  Both regimes are
run here on the same inputs and must give the same replies, the same
Cost per phase and the same simulated clock — over decode buffers and
resident rows, covered and uncovered chunks, long, short and empty
rows, repeated values, both search methods and p in {1, 4}, and with
``_IN_PLACE_MIN`` lowered so the keyed regime searches the resident hub
row in place.  A few-probe chunk over a prefetched hub row must also
leave that row's payload unread.
"""

import tracemalloc

import numpy as np
import pytest

from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.packed import BitPackedCSR
from repro.disk import DiskStore, write_disk_store
from repro.obs import Tracer
from repro.parallel import SerialExecutor, SimulatedMachine
from repro.query import QueryEngine, RowCache, batch_edge_existence, batch_neighbors
from repro.query import edges as edge_kernel
from repro.serve.server import GraphQueryServer

REGIMES = {"each": float("inf"), "keyed": 0}
N = 40


def _graph():
    """A 300-field hub with repeated values, a short row of one value
    repeated, short random rows and empty rows (nodes 30 and up)."""
    rng = np.random.default_rng(35)
    src = np.concatenate([np.zeros(300, np.int64), [1, 1, 1, 1], [3, 3, 3],
                          rng.integers(4, 30, 200)])
    dst = np.concatenate([rng.integers(0, N, 300), [9, 2, 2, 7], [5, 5, 5],
                          rng.integers(0, N, 200)])
    return build_csr_serial(*ensure_sorted(src, dst), N)


def _batches(graph):
    """Node and edge lanes: a few probes, and more than ``_SMALL_CHUNK``
    of them; planted hits, the hub, the repeated-value row, empty rows
    and duplicate probes in both."""
    rng = np.random.default_rng(7)
    src, dst = graph.edges()
    picks = rng.integers(0, src.shape[0], 16)
    planted = np.stack([src[picks], dst[picks]], axis=1)
    few = np.array([(0, int(graph.neighbors(0)[5])), (1, 2), (3, 5), (3, 6),
                    (31, 0), (0, 39)], dtype=np.int64)
    many = np.concatenate([few, planted, few[:3],
                           np.stack([rng.integers(0, N, 20), rng.integers(0, N, 20)], axis=1)])
    nodes_few = np.array([0, 1, 31, 1, 17], dtype=np.int64)
    nodes_many = np.concatenate([nodes_few, rng.integers(0, N, 30)])
    return [(nodes_few, few), (nodes_many, many)]


def _flow(store, nodes, edges, p, method, flow):
    """One mixed batch: two plain calls, the serve loop's fused fetch,
    or a prefetch that covers only some sources."""
    machine = SimulatedMachine(p)
    machine.tracer = Tracer()
    engine = QueryEngine(store, machine)
    sources = np.unique(edges[:, 0])
    if flow == "two-calls":
        rows = engine.neighbors(nodes)
        exists = engine.has_edges(edges, method=method)
    else:
        prefetch = sources if flow == "fused" else sources[::2]
        rows, fetched = engine.neighbors(nodes, prefetch=prefetch)
        exists = engine.has_edges(edges, method=method, rows=fetched)
    phases = [(s.layer, s.name, s.cost, s.start_ns, s.end_ns, s.meta)
              for s in machine.tracer.spans()]
    return rows, exists, phases, machine.elapsed_ns()


def _same(a, b):
    rows_a, exists_a, phases_a, elapsed_a = a
    rows_b, exists_b, phases_b, elapsed_b = b
    assert len(rows_a) == len(rows_b)
    for x, y in zip(rows_a, rows_b):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert exists_a.dtype == exists_b.dtype == np.bool_
    assert np.array_equal(exists_a, exists_b)
    assert phases_a == phases_b
    assert elapsed_a == elapsed_b


@pytest.fixture(scope="module")
def disk_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("disk") / "g"
    write_disk_store(BitPackedCSR.from_csr(_graph()), path).close()
    return path


@pytest.mark.parametrize("flow", ["two-calls", "fused", "partial"])
@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("method", ["scan", "bisect"])
# one value: the id segment these cases have always carried
@pytest.mark.parametrize("rows", ["sorted"])
@pytest.mark.parametrize("form", ["csr", "packed", "disk", "resident", "in-place"])
def test_regimes_agree_on_replies_and_costs(form, rows, method, p, flow,
                                            disk_path, monkeypatch):
    if form == "in-place":
        # resident rows, the hub long enough to be searched where it lies
        monkeypatch.setattr(edge_kernel, "_IN_PLACE_MIN", 4)
    graph = _graph()
    for nodes, edges in _batches(graph):
        got = {}
        for regime, limit in REGIMES.items():
            monkeypatch.setattr(edge_kernel, "_SMALL_CHUNK", limit)
            if form == "disk":
                # a fresh map per run: page touches count from cold
                with DiskStore.open(disk_path) as store:
                    got[regime] = [_flow(store, nodes, edges, p, method, flow)]
                continue
            if form in ("csr", "packed"):
                store = graph if form == "csr" else BitPackedCSR.from_csr(graph)
            else:
                store = RowCache(graph, 10_000)
            # a cache runs cold, then with every row resident
            got[regime] = [_flow(store, nodes, edges, p, method, flow)
                           for _ in range(1 + isinstance(store, RowCache))]
        for a, b in zip(got["each"], got["keyed"]):
            _same(a, b)
        want = [edge_kernel._membership(graph.neighbors(int(u)), int(v), method)[0]
                for u, v in edges]
        assert got["each"][0][1].tolist() == want
        for node, row in zip(nodes.tolist(), got["each"][0][0]):
            assert np.array_equal(row, graph.neighbors(node))


@pytest.mark.parametrize("p", [1, 4])
def test_kernel_step_agrees_across_regimes(p, monkeypatch):
    graph = _graph()
    for nodes, edges in _batches(graph):
        nodes, edges = np.unique(nodes), np.unique(edges, axis=0)
        got = {}
        for regime, limit in REGIMES.items():
            monkeypatch.setattr(edge_kernel, "_SMALL_CHUNK", limit)
            machine = SimulatedMachine(p)
            server = GraphQueryServer(BitPackedCSR.from_csr(graph), machine)
            rows, exists, _ = server.run_kernels(nodes, edges)
            got[regime] = rows, exists, machine.elapsed_ns()
        (rows_a, exists_a, t_a), (rows_b, exists_b, t_b) = got.values()
        assert all(np.array_equal(a, b) for a, b in zip(rows_a, rows_b))
        assert exists_a == exists_b and t_a == t_b


@pytest.mark.parametrize("form", ["decode-buffer", "resident"])
def test_a_few_probes_read_no_hub_payload(form):
    """Four probes into a prefetched 20k-field hub row allocate less
    than an eighth of that row's bytes: no keyed copy, no row-offset
    repeat."""
    rng = np.random.default_rng(3)
    n = 30_000
    src = np.concatenate([np.zeros(20_000, np.int64), rng.integers(1, n, 2_000)])
    store = BitPackedCSR.from_csr(build_csr_serial(
        *ensure_sorted(src, rng.integers(0, n, src.shape[0])), n))
    if form == "resident":
        store = RowCache(store, 100_000)
    hub = store.neighbors(0)
    assert hub.shape[0] == 20_000
    edges = np.array([(0, int(hub[7])), (0, 1), (0, int(hub[-1])), (0, 5)], dtype=np.int64)
    _, fetched = batch_neighbors(store, [], prefetch=[0])

    def peak():
        tracemalloc.start()
        try:
            got = batch_edge_existence(store, edges, SerialExecutor(), rows=fetched)
            return tracemalloc.get_traced_memory()[1], got
        finally:
            tracemalloc.stop()

    peak()  # first-call allocations
    allocated, got = peak()
    assert got.tolist() == [store.has_edge(int(u), int(v)) for u, v in edges]
    assert got[0] and got[2]
    assert allocated < hub.nbytes / 8
