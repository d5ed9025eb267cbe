"""Compaction bit-exactness gate (ISSUE 7 acceptance criterion).

Property test: drive an LsmStore with a random insert/delete stream
(mirrored into a dict-of-sets model), compacting on a watermark.
After EVERY compaction the store must answer queries identically to a
from-scratch rebuild of the same logical edge set through the plain
``open_store`` path — across inner segment kinds and executors.
"""

import numpy as np
import pytest

from repro import open_store
from repro.lsm import build_lsm_store
from repro.query import capabilities
from repro.query.stores import neighbors_batch

INNER_KINDS = ("packed", "csr", "compact")


def _logical(ref):
    us, vs = [], []
    for u in sorted(ref):
        for v in sorted(ref[u]):
            us.append(u)
            vs.append(v)
    return np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)


def _assert_bit_exact(store, ref, n, inner, executor):
    src, dst = _logical(ref)
    rebuilt = open_store(inner, src, dst, n, executor=executor)
    assert store.num_edges == rebuilt.num_edges
    for u in range(n):
        assert np.array_equal(
            np.asarray(store.neighbors(u), dtype=np.int64),
            np.asarray(rebuilt.neighbors(u), dtype=np.int64),
        ), f"row {u} diverged after compaction (inner={inner})"
    us = np.arange(n, dtype=np.int64)
    flat, offs = neighbors_batch(store, us, capabilities(store))
    rflat, roffs = neighbors_batch(rebuilt, us, capabilities(rebuilt))
    assert np.array_equal(offs, roffs)
    assert np.array_equal(
        np.asarray(flat, dtype=np.int64), np.asarray(rflat, dtype=np.int64)
    )


@pytest.mark.parametrize("inner", INNER_KINDS)
def test_compaction_bit_exact_random_stream(inner, executor):
    n = 60
    rng = np.random.default_rng(0x7EA)
    keys = np.unique(rng.integers(0, n * n, 300))
    src, dst = keys // n, keys % n
    store = build_lsm_store(
        src, dst, n, inner=inner, executor=executor, compact_watermark=25
    )
    ref = {}
    for u, v in zip(src.tolist(), dst.tolist()):
        ref.setdefault(u, set()).add(v)

    compactions = 0
    for _ in range(180):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if rng.random() < 0.3:
            store.delete_edge(u, v)
            ref.get(u, set()).discard(v)
        else:
            store.insert_edge(u, v)
            ref.setdefault(u, set()).add(v)
        if store.maybe_compact(executor=executor):
            compactions += 1
            assert len(store.memtable) == 0
            _assert_bit_exact(store, ref, n, inner, executor)
    assert compactions >= 2, "watermark never tripped — test is vacuous"
    # final explicit compaction from whatever residue remains
    store.compact(executor=executor)
    _assert_bit_exact(store, ref, n, inner, executor)


def test_compaction_of_emptied_graph(executor):
    """Deleting every edge then compacting yields an empty segment."""
    src = np.array([0, 1, 2])
    dst = np.array([1, 2, 0])
    store = build_lsm_store(src, dst, 3, executor=executor)
    for u, v in zip(src.tolist(), dst.tolist()):
        assert store.delete_edge(u, v)
    store.compact(executor=executor)
    assert store.num_edges == 0
    assert len(store.memtable) == 0
    for u in range(3):
        assert store.neighbors(u).tolist() == []


def test_disk_inner_compaction_generations(tmp_path):
    """The disk inner kind re-packs into per-generation subdirectories."""
    n = 30
    rng = np.random.default_rng(3)
    keys = np.unique(rng.integers(0, n * n, 120))
    store = build_lsm_store(
        keys // n, keys % n, n, inner="disk", path=tmp_path / "seg"
    )
    ref = {}
    for u, v in zip((keys // n).tolist(), (keys % n).tolist()):
        ref.setdefault(u, set()).add(v)
    for _ in range(40):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        store.insert_edge(u, v)
        ref.setdefault(u, set()).add(v)
    store.compact()
    _assert_bit_exact(store, ref, n, "packed", None)
    # a second compaction cycle lands in a fresh generation directory
    store.insert_edge(0, n - 1)
    ref.setdefault(0, set()).add(n - 1)
    store.compact()
    _assert_bit_exact(store, ref, n, "packed", None)
