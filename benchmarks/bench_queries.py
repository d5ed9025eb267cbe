"""Section V ablation — parallel query throughput.

Batched neighbourhood queries (Algorithm 6), batched edge existence
(Algorithm 7, scan vs the binary-search extension), and single-edge
row-splitting (Algorithm 8), on the uncompressed and bit-packed CSR,
with the simulated p-sweep showing the claimed query parallelism.

The scalar-vs-batch comparison times the per-row Python path (one
``neighbors()``/membership call per query — the pre-vectorisation
implementation) against the gather-decode batch kernels at a 10k+
batch, and records the throughput baseline in ``BENCH_queries.json``
so future PRs can track the query-path trajectory.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.tables import render_series, render_table
from repro import open_store
from repro.parallel import SerialExecutor, SimulatedMachine
from repro.query import (
    QueryEngine,
    RowCache,
    batch_edge_existence,
    batch_neighbors,
)
from repro.query.edges import _membership
from repro.utils import min_uint_dtype

from conftest import baseline_record, baseline_section, report

N_QUERIES = 2_000
BATCH_N = 10_000  # scalar-vs-batch comparison size (acceptance: >= 10k)
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_queries.json"

# The >= 5x gate reflects an unloaded machine; shared CI runners are
# noisy enough to flake it, so CI only asserts the batch path clearly
# beats the per-row Python loop (a regression to the scalar path shows
# up as ~1x).  Local runs keep the full acceptance bar.
SPEEDUP_FLOOR = 2.0 if os.environ.get("CI") else 5.0


@pytest.fixture(scope="module")
def stores(medium_standin):
    ds = medium_standin
    args = (ds.sources, ds.destinations, ds.num_nodes)
    return {"csr": open_store("csr-serial", *args), "packed": open_store("packed", *args)}


@pytest.fixture(scope="module")
def node_queries(medium_standin):
    rng = np.random.default_rng(11)
    return rng.integers(0, medium_standin.num_nodes, N_QUERIES)


@pytest.fixture(scope="module")
def edge_queries(medium_standin, stores):
    rng = np.random.default_rng(13)
    n = medium_standin.num_nodes
    qs = np.stack([rng.integers(0, n, N_QUERIES), rng.integers(0, n, N_QUERIES)], axis=1)
    src, dst = stores["csr"].edges()
    picks = rng.integers(0, len(src), N_QUERIES // 2)
    qs[: N_QUERIES // 2, 0] = src[picks]
    qs[: N_QUERIES // 2, 1] = dst[picks]
    return qs


@pytest.mark.parametrize("store_name", ["csr", "packed"])
def test_batch_neighbors_wallclock(benchmark, stores, node_queries, store_name):
    store = stores[store_name]
    ex = SerialExecutor()
    rows = benchmark(batch_neighbors, store, node_queries, ex)
    assert len(rows) == N_QUERIES


@pytest.mark.parametrize("method", ["scan", "bisect"])
def test_batch_edges_wallclock(benchmark, stores, edge_queries, method):
    out = benchmark(
        batch_edge_existence, stores["csr"], edge_queries, SerialExecutor(), method=method
    )
    assert out.sum() >= N_QUERIES // 2  # planted edges found


def test_single_edge_row_split(benchmark, stores):
    csr = stores["csr"]
    u = int(np.argmax(csr.degrees()))
    v = int(csr.neighbors(u)[-1])
    engine = QueryEngine(csr, SimulatedMachine(8))

    def run():
        return engine.has_edge(u, v, method="scan")

    assert benchmark(run)


def _best_of(fn, repeats=3):
    """Best wall-clock seconds over *repeats* runs (returns last result too)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _scalar_neighbors(store, unodes):
    """The pre-vectorisation path: one Python-level row call per query."""
    return [store.neighbors(int(u)) for u in unodes]


def _scalar_edges(store, qs, method):
    """The pre-vectorisation path: one row decode + membership per query."""
    out = np.zeros(qs.shape[0], dtype=bool)
    for i in range(qs.shape[0]):
        row = store.neighbors(int(qs[i, 0]))
        out[i], _ = _membership(row, int(qs[i, 1]), method)
    return out


def test_scalar_vs_batch_throughput(stores, medium_standin):
    """Batch kernels must beat the per-query scalar path >= 5x at 10k
    queries on the packed CSR (relaxed to >= 2x on noisy CI runners).
    The measured baseline is written to BENCH_queries.json when
    BENCH_WRITE_BASELINE=1 (or when no baseline exists yet)."""
    store = stores["packed"]
    rng = np.random.default_rng(17)
    n = medium_standin.num_nodes
    unodes = rng.integers(0, n, BATCH_N)
    qs = np.stack([rng.integers(0, n, BATCH_N), rng.integers(0, n, BATCH_N)], axis=1)
    src, dst = stores["csr"].edges()
    picks = rng.integers(0, len(src), BATCH_N // 2)
    qs[: BATCH_N // 2, 0] = src[picks]
    qs[: BATCH_N // 2, 1] = dst[picks]

    results = {}
    t_scalar, want_rows = _best_of(lambda: _scalar_neighbors(store, unodes))
    t_batch, got_rows = _best_of(
        lambda: batch_neighbors(store, unodes, SerialExecutor())
    )
    for want, got in zip(want_rows, got_rows):
        assert np.array_equal(want, got)
    results["neighbors"] = {
        "scalar_s": t_scalar,
        "batch_s": t_batch,
        "speedup": t_scalar / t_batch,
        "batch_queries_per_s": BATCH_N / t_batch,
    }
    for method in ("scan", "bisect"):
        t_scalar, want = _best_of(lambda: _scalar_edges(store, qs, method))
        t_batch, got = _best_of(
            lambda: batch_edge_existence(store, qs, SerialExecutor(), method=method)
        )
        assert np.array_equal(want, got)
        results[f"edges-{method}"] = {
            "scalar_s": t_scalar,
            "batch_s": t_batch,
            "speedup": t_scalar / t_batch,
            "batch_queries_per_s": BATCH_N / t_batch,
        }

    baseline = {
        "store": "BitPackedCSR (pokec stand-in, 1/64 scale)",
        "batch_size": BATCH_N,
        "graph": {"nodes": int(n), "edges": int(store.num_edges)},
        "kernels": results,
    }
    # refresh the committed baseline only on request — a plain test run
    # must not dirty the working tree with this machine's numbers
    if os.environ.get("BENCH_WRITE_BASELINE") or not BASELINE_PATH.exists():
        baseline_record(
            BASELINE_PATH, baseline, name="queries",
            gate=f"every kernel >= {SPEEDUP_FLOOR}x its scalar path",
            measured=min(r["speedup"] for r in results.values()),
        )

    rows = [
        [name, f"{r['scalar_s'] * 1e3:.1f}", f"{r['batch_s'] * 1e3:.1f}",
         f"{r['speedup']:.1f}x", f"{r['batch_queries_per_s']:,.0f}"]
        for name, r in results.items()
    ]
    report(
        f"Scalar vs batch query kernels (packed CSR, {BATCH_N} queries, wall-clock)",
        render_table(
            ["kernel", "scalar ms", "batch ms", "speedup", "batch q/s"],
            rows,
            title="vectorised decode vs per-row Python path",
        ),
    )
    for name, r in results.items():
        assert r["speedup"] >= SPEEDUP_FLOOR, f"{name}: only {r['speedup']:.1f}x"


def test_rowcache_hit_rate_on_skewed_traffic(stores, medium_standin):
    """An LRU row cache over the packed store should absorb most of a
    Zipf-skewed workload and speed repeated batches up further."""
    store = stores["packed"]
    n = medium_standin.num_nodes
    rng = np.random.default_rng(23)
    skewed = np.minimum(rng.zipf(1.3, BATCH_N) - 1, n - 1).astype(np.int64)
    cache = RowCache(store, capacity=200_000)
    t_cold, _ = _best_of(lambda: batch_neighbors(cache, skewed, SerialExecutor()), 1)
    t_warm, _ = _best_of(lambda: batch_neighbors(cache, skewed, SerialExecutor()), 3)
    stats = cache.stats()
    assert stats.hit_rate > 0.5
    report(
        "Row cache on Zipf(1.3) traffic (packed CSR)",
        render_table(
            ["metric", "value"],
            [
                ["cold batch ms", f"{t_cold * 1e3:.1f}"],
                ["warm batch ms", f"{t_warm * 1e3:.1f}"],
                ["hit rate", f"{stats.hit_rate:.1%}"],
                ["resident elements", stats.elements],
            ],
            title=repr(cache)[:100],
        ),
    )


class TalliedRow(np.ndarray):
    """Row payload that counts the elements numpy reads from it (into
    the one-cell list ``tally``, inherited by views and copies): every
    element for a whole-array call — a ufunc, ``concatenate`` — and the
    probe bound ``ceil(log2(size + 1))`` per needle for a binary search,
    as the cost model charges "bisect"."""

    tally = None

    def __array_finalize__(self, source):
        self.tally = getattr(source, "tally", None)

    def _plain(self, arg):
        if isinstance(arg, TalliedRow):
            self.tally[0] += arg.size
            return arg.view(np.ndarray)
        if isinstance(arg, (list, tuple)):
            return type(arg)(self._plain(a) for a in arg)
        return arg

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        return getattr(ufunc, method)(*self._plain(inputs), **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.searchsorted:
            return args[0].searchsorted(*args[1:], **kwargs)
        return func(*self._plain(args), **kwargs)

    def searchsorted(self, v, *args, **kwargs):
        self.tally[0] += np.size(v) * int(np.ceil(np.log2(self.size + 1)))
        return self.view(np.ndarray).searchsorted(v, *args, **kwargs)


class TalliedStore:
    """Forwards to a store; its batch payload is a :class:`TalliedRow`."""

    def __init__(self, inner, tally):
        self._inner, self._tally = inner, tally

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def neighbors_batch(self, unodes):
        flat, offsets = self._inner.neighbors_batch(unodes)
        flat = flat.view(TalliedRow)
        flat.tally = self._tally
        return flat, offsets


def test_rowcache_hot_path_counts(stores, medium_standin):
    """Count gate (domain "count", exact for the seed): a batch of cache
    hits hands over the resident rows — no element of a hit row is
    copied — the edge lane reads O(log degree) elements per query of a
    hub row, not the row, and a resident element costs the id width."""
    store = stores["packed"]
    degree = np.diff(stores["csr"].indptr)
    hubs = np.argsort(-degree, kind="stable")[:16].astype(np.int64)
    rng = np.random.default_rng(29)
    tally = [0]
    cache = RowCache(TalliedStore(store, tally), capacity=4_000_000)

    # a hot batch: Zipf keys, every row resident
    n = medium_standin.num_nodes
    keys = np.minimum(rng.zipf(1.3, 256) - 1, n - 1).astype(np.int64)
    batch_neighbors(cache, keys, SerialExecutor())
    replies = batch_neighbors(cache, keys, SerialExecutor())
    copied = sum(reply.size for u, reply in zip(keys.tolist(), replies)
                 if reply is not cache._rows.get(u))

    # a hub-heavy edge batch, sources resident: four probes on each of
    # the 16 largest rows (the kernel copies a row instead once the
    # queries on it outnumber its length / 512), half of them planted
    sources = np.repeat(hubs, 4)
    qs = np.stack([sources, rng.integers(0, n, 64)], axis=1)
    qs[::2, 1] = [store.neighbors(int(u))[0] for u in sources[::2]]
    want = batch_edge_existence(store, qs, SerialExecutor(), method="bisect")
    cache.neighbors_batch(hubs)
    tally[0] = 0
    got = batch_edge_existence(cache, qs, SerialExecutor(), method="bisect")
    assert np.array_equal(got, want) and got[::2].all()
    scanned = tally[0] / qs.shape[0]
    bound = int(np.ceil(np.log2(degree.max()))) + 1
    # bytes of a resident row element: memory_bytes less the wrapped
    # store and the one admission mark per node
    elements = cache.stats().elements
    per_element = (cache.memory_bytes() - store.memory_bytes() - n) / elements
    id_bytes = min_uint_dtype(n - 1).itemsize

    section = {
        "hit_elements_copied_per_hot_batch": {
            "value": copied, "gate": "== 0 (exact)", "domain": "count"},
        "edge_lane_elements_scanned_per_query": {
            "value": scanned, "domain": "count",
            "gate": f"<= ceil(log2(max degree {int(degree.max())})) + 1 = {bound}"},
        "resident_bytes_per_element": {
            "value": per_element, "domain": "count",
            "gate": f"== {id_bytes} (exact)"},
    }
    if os.environ.get("BENCH_WRITE_BASELINE") and BASELINE_PATH.exists():
        baseline_section(BASELINE_PATH, {"rowcache_hot_path": section})
    report(
        "Row cache hot path (count domain, packed CSR)",
        render_table(
            ["count", "value", "gate"],
            [[name, f"{entry['value']:g}", entry["gate"]]
             for name, entry in section.items()],
            title="256 Zipf(1.3) hits; 4 edge probes on each of the 16 largest rows",
        ),
    )
    assert copied == 0
    assert scanned <= bound
    assert per_element == id_bytes


#: the same two streams through the LRU that admitted every miss that
#: fit (parent commit 7c19f2a), measured once
PARENT_UNIFORM_EVICTIONS_PER_MISS = 57_740 / 58_457
PARENT_ZIPF_HIT_RATE = 189_244 / 200_000


def test_rowcache_admission_counts(stores, medium_standin):
    """Count gate (domain "count", exact for the seed): a full cache
    admits a row on its second touch.  Uniform keys over a cache of
    1/40 of the working set stop evicting on almost every miss, and a
    Zipf(1.3) stream that fills a 200k-element cache keeps at least the
    hit rate of admitting every miss."""
    store = stores["packed"]
    n, m = medium_standin.num_nodes, store.num_edges
    rng = np.random.default_rng(31)
    uniform = rng.integers(0, n, 60_000)
    skewed = np.minimum(rng.zipf(1.3, 200_000) - 1, n - 1).astype(np.int64)

    def replay(keys, capacity):
        cache = RowCache(store, capacity)
        for lo in range(0, keys.shape[0], 256):
            cache.neighbor_rows(keys[lo : lo + 256])
        return cache.stats()

    cold, hot = replay(uniform, m // 40), replay(skewed, 200_000)
    per_miss = cold.evictions / cold.misses
    section = {
        "uniform_evictions_per_miss": {
            "value": per_miss, "parent": PARENT_UNIFORM_EVICTIONS_PER_MISS,
            "domain": "count",
            "gate": f"<= 0.1 (60k uniform keys, capacity {m // 40} = m / 40)"},
        "zipf_hit_rate": {
            "value": hot.hit_rate, "parent": PARENT_ZIPF_HIT_RATE, "domain": "count",
            "gate": ">= parent (200k Zipf(1.3) keys, capacity 200k)"},
    }
    if os.environ.get("BENCH_WRITE_BASELINE") and BASELINE_PATH.exists():
        baseline_section(BASELINE_PATH, {"rowcache_admission": section})
    report(
        "Row cache second-touch admission (count domain, packed CSR)",
        render_table(
            ["count", "parent", "value", "gate"],
            [[name, f"{entry['parent']:.4f}", f"{entry['value']:.4f}", entry["gate"]]
             for name, entry in section.items()],
            title=f"batches of 256; refused {cold.refused} / {hot.refused}",
        ),
    )
    assert per_miss <= 0.1
    assert hot.hit_rate >= PARENT_ZIPF_HIT_RATE


def test_query_throughput_scaling_report(benchmark, stores, node_queries, edge_queries):
    """Simulated p-sweep of both batch query algorithms on the packed CSR."""

    def sweep():
        out = {"neighbors": {}, "edges-scan": {}, "edges-bisect": {}}
        store = stores["packed"]
        for p in (1, 4, 16, 64):
            m = SimulatedMachine(p)
            batch_neighbors(store, node_queries, m)
            out["neighbors"][p] = m.elapsed_ms()
            m = SimulatedMachine(p)
            batch_edge_existence(store, edge_queries, m, method="scan")
            out["edges-scan"][p] = m.elapsed_ms()
            m = SimulatedMachine(p)
            batch_edge_existence(store, edge_queries, m, method="bisect")
            out["edges-bisect"][p] = m.elapsed_ms()
        return out

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for name, curve in series.items():
        assert curve[64] < curve[1] / 8, name  # queries parallelise well
    assert series["edges-bisect"][1] < series["edges-scan"][1]
    report(
        "Section V ablation: batched query time vs processors (simulated ms, 2k queries)",
        render_series("query batches on bit-packed CSR", series),
    )
