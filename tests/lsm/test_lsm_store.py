"""LsmStore merged reads, checked writes, and persistence.

A dict-of-sets reference model shadows every mutation, so each
assertion compares the store's merged view against independently
tracked truth.
"""

import numpy as np
import pytest

from repro import open_store
from repro.errors import QueryError, ValidationError
from repro.lsm import LsmStore, build_lsm_store
from repro.query import capabilities
from repro.query.stores import neighbors_batch


@pytest.fixture
def edges():
    rng = np.random.default_rng(0x15A)
    n = 80
    keys = np.unique(rng.integers(0, n * n, 600))
    return keys // n, keys % n, n


def _model(src, dst):
    ref: dict[int, set[int]] = {}
    for u, v in zip(src.tolist(), dst.tolist()):
        ref.setdefault(u, set()).add(v)
    return ref


def _assert_matches(store, ref, n):
    for u in range(n):
        want = sorted(ref.get(u, set()))
        got = store.neighbors(u)
        assert got.tolist() == want, f"row {u}"
        assert store.degree(u) == len(want)
    total = sum(len(s) for s in ref.values())
    assert store.num_edges == total


class TestReads:
    def test_clean_store_matches_base(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n)
        _assert_matches(store, _model(src, dst), n)

    def test_duplicate_edges_fold_to_set(self):
        src = np.array([0, 0, 0, 1])
        dst = np.array([2, 2, 3, 0])
        store = build_lsm_store(src, dst, 4)
        assert store.num_edges == 3
        assert store.neighbors(0).tolist() == [2, 3]

    def test_empty_graph(self):
        store = build_lsm_store([], [], 5)
        assert store.num_edges == 0
        assert store.neighbors(2).tolist() == []
        assert not store.has_edge(0, 1)
        store.insert_edge(0, 1)
        assert store.has_edge(0, 1)
        assert store.num_edges == 1

    def test_out_of_range_rejected(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n)
        with pytest.raises(QueryError):
            store.neighbors(n)
        with pytest.raises(QueryError):
            store.has_edge(0, n)
        with pytest.raises(QueryError):
            store.insert_edge(-1, 0)
        with pytest.raises(QueryError):
            store.neighbors_batch(np.array([0, n]))

    def test_batch_matches_scalar_dirty_and_clean(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n)
        store.insert_edge(0, 79)
        store.delete_edge(int(src[0]), int(dst[0]))
        us = np.random.default_rng(1).integers(0, n, 60)
        caps = capabilities(store)
        flat, offs = neighbors_batch(store, us, caps)
        assert flat.dtype == caps.row_dtype == np.dtype(np.int64)
        for i, u in enumerate(us.tolist()):
            assert np.array_equal(flat[offs[i]: offs[i + 1]], store.neighbors(u))

    def test_degrees_vector(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n)
        store.insert_edge(3, 3)
        degs = store.degrees()
        assert degs.shape == (n,)
        assert degs.tolist() == [store.degree(u) for u in range(n)]


class TestWrites:
    def test_checked_writes_and_noops(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n)
        ref = _model(src, dst)
        u0, v0 = int(src[0]), int(dst[0])
        # inserting an existing edge is a no-op
        assert store.insert_edge(u0, v0) is False
        assert store.write_noops == 1
        # deleting a base edge tombstones it
        assert store.delete_edge(u0, v0) is True
        ref[u0].discard(v0)
        assert not store.has_edge(u0, v0)
        assert store.memtable.tombstones == 1
        # deleting again is a no-op
        assert store.delete_edge(u0, v0) is False
        # re-inserting resurrects it
        assert store.insert_edge(u0, v0) is True
        ref[u0].add(v0)
        _assert_matches(store, ref, n)

    def test_delete_of_memtable_only_insert_leaves_no_tombstone(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n)
        store.insert_edge(0, 42) if not store.has_edge(0, 42) else None
        before = len(store.memtable)
        assert store.delete_edge(0, 42) is True
        assert store.memtable.tombstones == 0
        assert len(store.memtable) < before

    def test_random_stream_matches_model(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n)
        ref = _model(src, dst)
        rng = np.random.default_rng(9)
        for _ in range(400):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if rng.random() < 0.35:
                assert store.delete_edge(u, v) is (v in ref.get(u, set()))
                ref.get(u, set()).discard(v)
            else:
                assert store.insert_edge(u, v) is (v not in ref.get(u, set()))
                ref.setdefault(u, set()).add(v)
        _assert_matches(store, ref, n)

    def test_maybe_compact_watermark(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n, compact_watermark=10)
        rng = np.random.default_rng(2)
        compactions = 0
        for _ in range(50):
            store.insert_edge(int(rng.integers(0, n)), int(rng.integers(0, n)))
            if store.maybe_compact():
                compactions += 1
                assert len(store.memtable) == 0
                assert len(store.segments) == 1
        assert compactions >= 1
        assert store.stats().compactions == compactions


class TestStructure:
    def test_segment_node_space_checked(self, edges):
        src, dst, n = edges
        seg = open_store("packed", src, dst, n)
        with pytest.raises(ValidationError):
            LsmStore(n + 1, [seg])
        # exactly one base: none and two are refused
        with pytest.raises(ValidationError):
            LsmStore(n, [])
        with pytest.raises(ValidationError):
            LsmStore(n, [seg, open_store("packed", src, dst, n)])
        # an empty graph still has its one (empty) base, and compacts
        empty = build_lsm_store([], [], 0)
        assert len(empty.segments) == 1 and empty.segments[0].num_edges == 0
        empty.compact()
        assert len(empty.segments) == 1 and empty.num_edges == 0

    def test_stats_shape(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n, compact_watermark=7)
        s = store.stats()
        assert s.compact_watermark == 7
        assert s.logical_edges == store.num_edges

    def test_memory_bytes_counts_memtable(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n)
        base = store.memory_bytes()
        for v in range(30):
            store.insert_edge(0, v)
        assert store.memory_bytes() > base

    def test_page_touch_surface_absent_for_memory_segments(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n)
        assert not hasattr(store, "take_page_touches")
        assert not capabilities(store).counts_page_touches

    def test_supports_writes_capability(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n)
        assert capabilities(store).supports_writes
        assert not capabilities(store.segments[0]).supports_writes


class TestPersistence:
    def test_save_load_roundtrip_with_live_memtable(self, tmp_path, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n)
        store.insert_edge(1, 77)
        store.delete_edge(int(src[0]), int(dst[0]))
        path = tmp_path / "live.npz"
        store.save(path)
        loaded = LsmStore.load(path)
        assert loaded.num_edges == store.num_edges
        assert len(loaded.memtable) == len(store.memtable)
        assert loaded.memtable.tombstones == store.memtable.tombstones
        for u in range(n):
            assert np.array_equal(loaded.neighbors(u), store.neighbors(u))

    def test_save_rejects_unpacked_segments(self, tmp_path, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n, inner="csr")
        with pytest.raises(ValidationError):
            store.save(tmp_path / "bad.npz")

    def test_load_rejects_other_kinds(self, tmp_path, edges):
        src, dst, n = edges
        packed = open_store("packed", src, dst, n)
        path = tmp_path / "packed.npz"
        packed.save(path)
        with pytest.raises(ValidationError):
            LsmStore.load(path)

    def test_load_rejects_a_file_with_two_segments(self, tmp_path, edges):
        src, dst, n = edges
        path = tmp_path / "lsm.npz"
        build_lsm_store(src, dst, n).save(path)
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
        payload["num_segments"] = np.asarray(2)
        np.savez(path, **payload)
        with pytest.raises(ValidationError, match="exactly one"):
            LsmStore.load(path)
