"""Store wrappers resolve their inner store's capabilities once.

``ReorderedStore``, ``ShardedStore`` and ``RowCache`` wrap a store that
is fixed for their life, so the optional-surface probe runs at
construction; a batch must not resolve anything again.  ``LsmStore``
swaps its base segment at compaction and re-resolves exactly then.
"""

import numpy as np
import pytest

import repro.lsm.store as lsm_store
import repro.query.stores as query_stores
from repro import open_store
from repro.csr.builder import ensure_sorted
from repro.query import RowCache, capabilities


@pytest.fixture(scope="module")
def edges():
    rng = np.random.default_rng(5)
    n, m = 60, 500
    src, dst = ensure_sorted(rng.integers(0, n, m), rng.integers(0, n, m))
    return src, dst, n


def wrappers(src, dst, n):
    yield open_store("reordered", src, dst, n, inner="compact")
    yield open_store("sharded", src, dst, n, shards=3)
    yield open_store("sharded", src, dst, n, shards=3, inner="reordered")
    yield RowCache(open_store("packed", src, dst, n), capacity=1000)


def test_batches_resolve_nothing(edges, monkeypatch):
    src, dst, n = edges
    stores = list(wrappers(src, dst, n))
    reference = open_store("csr", src, dst, n)
    resolved = [capabilities(store) for store in stores]

    def no_probe(store):
        raise AssertionError(f"capabilities({type(store).__name__}) resolved per batch")

    # the dispatcher's own fallback resolution: never reached, because
    # every wrapper hands down the capabilities it resolved when built
    monkeypatch.setattr(query_stores, "capabilities", no_probe)
    keys = np.array([3, 17, 3, 0, 59], dtype=np.int64)
    want, _ = reference.neighbors_batch(keys)
    for store, caps in zip(stores, resolved):
        flat, _ = store.neighbors_batch(keys)
        assert flat.dtype == caps.row_dtype
        assert np.array_equal(flat, want)


def test_lsm_resolves_once_per_segment(edges, monkeypatch):
    src, dst, n = edges
    lsm = open_store("lsm", src, dst, n, inner="compact")
    probed = []

    def counting(store):
        probed.append(store)
        return capabilities(store)

    monkeypatch.setattr(lsm_store, "capabilities", counting)
    keys = np.arange(10, dtype=np.int64)
    for _ in range(3):
        lsm.neighbors_batch(keys)
    assert probed == [lsm.segments[0]]
    lsm.insert_edge(1, 2)
    lsm.compact()
    for _ in range(3):
        lsm.neighbors_batch(keys)
    assert len(probed) == 2 and probed[1] is lsm.segments[0]
