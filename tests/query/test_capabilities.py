"""StoreCapabilities resolution — the query layer's one probing site."""

import numpy as np
import pytest

from repro import open_store
from repro.csr.builder import ensure_sorted
from repro.query import RowCache, StoreCapabilities, capabilities
from repro.query.stores import row_decode_cost, row_dtype
from repro.utils import min_uint_dtype


@pytest.fixture(scope="module")
def edges():
    rng = np.random.default_rng(21)
    n, m = 40, 300
    src = np.sort(rng.integers(0, n, m))
    return (*ensure_sorted(src, rng.integers(0, n, m)), n)


def test_packed_store_caps(edges):
    src, dst, n = edges
    store = open_store("packed", src, dst, n)
    caps = capabilities(store)
    assert caps == StoreCapabilities(
        has_native_batch=True,
        row_dtype=np.dtype(np.uint64),
        is_packed=True,
        decode_bits=store.column_width,
    )


def test_csr_store_caps(edges):
    src, dst, n = edges
    store = open_store("csr", src, dst, n)
    caps = capabilities(store)
    assert caps.has_native_batch and not caps.is_packed
    assert caps.decode_bits == 1
    assert caps.row_dtype == store.indices.dtype


def test_baseline_without_batch(edges):
    src, dst, n = edges
    store = open_store("adjmatrix", src, dst, n)
    caps = capabilities(store)
    assert not caps.has_native_batch
    assert caps.decode_bits == 1


def test_sharded_inherits_inner_packing(edges):
    src, dst, n = edges
    inner_caps = capabilities(open_store("packed", src, dst, n))
    caps = capabilities(open_store("sharded", src, dst, n, shards=3))
    assert caps.is_packed
    assert caps.decode_bits == inner_caps.decode_bits
    assert caps.row_dtype == inner_caps.row_dtype

    unpacked = capabilities(open_store("sharded", src, dst, n, shards=3,
                                       inner="csr"))
    assert not unpacked.is_packed and unpacked.decode_bits == 1


def test_row_cache_declares_dtype(edges):
    src, dst, n = edges
    cached = RowCache(open_store("packed", src, dst, n), capacity=16)
    caps = capabilities(cached)
    assert caps.has_native_batch
    # the id width, not the packed store's uint64
    assert caps.row_dtype == cached.row_dtype == min_uint_dtype(n - 1)


def test_decode_cost_uses_caps(edges):
    src, dst, n = edges
    packed = open_store("packed", src, dst, n)
    plain = open_store("csr", src, dst, n)
    assert row_decode_cost(packed, 10) == 10 * packed.column_width
    assert row_decode_cost(plain, 10) == 10.0
    # a pre-resolved caps object short-circuits re-probing
    caps = capabilities(packed)
    assert row_decode_cost(packed, 7, caps) == 7 * caps.decode_bits
    assert row_dtype(packed, caps) == caps.row_dtype


def test_caps_frozen():
    caps = StoreCapabilities(True, np.dtype(np.int64), False, 1)
    with pytest.raises(AttributeError):
        caps.is_packed = True
