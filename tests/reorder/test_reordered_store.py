"""ReorderedStore: bit-exact round-trips in the original id space."""

import numpy as np
import pytest

from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.reorder import ReorderedStore, build_reordered_store
from repro.errors import QueryError, ValidationError
from repro.stores import load_store, open_store, save_store
from tests.conftest import CountingStore

ORDERINGS = ["natural", "degree", "bfs", "slashburn"]

# every registered kind that can serve as a reordered inner, including
# the nested sharded and disk stores
INNER_KINDS = [
    ("packed", {}),
    ("gap", {}),
    ("compact", {"segment_bytes": 2048}),
    ("csr", {}),
    ("adjlist", {}),
    ("sharded", {"shards": 3, "partitioner": "hash"}),
    ("disk", {"segment_bytes": 2048}),
]


@pytest.fixture
def edges(rng):
    n, m = 150, 1800
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    src, dst = ensure_sorted(src, dst)
    return src, dst, n


def _reference(src, dst, n):
    return build_csr_serial(src, dst, n)


class TestRoundTrip:
    @pytest.mark.parametrize("order", ORDERINGS)
    @pytest.mark.parametrize("kind,opts", INNER_KINDS,
                             ids=[k for k, _ in INNER_KINDS])
    def test_bit_exact_vs_unreordered(self, rng, edges, order, kind, opts):
        src, dst, n = edges
        ref = _reference(src, dst, n)
        store = build_reordered_store(
            src, dst, n, order=order, inner=kind, **opts
        )
        assert isinstance(store, ReorderedStore)
        assert store.num_nodes == n and store.num_edges == src.shape[0]
        for u in range(n):
            assert store.degree(u) == ref.degree(u)
            assert np.array_equal(
                np.asarray(store.neighbors(u), dtype=np.int64),
                ref.neighbors(u),
            )
        batch = rng.integers(0, n, 120)
        flat, offsets = store.neighbors_batch(batch)
        rflat, roffsets = ref.neighbors_batch(batch)
        assert np.array_equal(offsets, roffsets)
        assert np.array_equal(np.asarray(flat, dtype=np.int64), rflat)
        for u, v in zip(rng.integers(0, n, 60), rng.integers(0, n, 60)):
            assert store.has_edge(int(u), int(v)) == ref.has_edge(int(u), int(v))

    @pytest.mark.parametrize("wide", [False, True], ids=["fused-key", "wide-fallback"])
    def test_batch_resort_duplicate_keys(self, rng, edges, monkeypatch, wide):
        """Repeated keys, repeated edges, empty rows: the batch re-sort
        is bit-exact (values and dtype) on the fused-key path and on the
        lexsort fallback ids too wide for one key would take."""
        if wide:
            monkeypatch.setattr("repro.parallel.sort._fuse", lambda hi, lo: None)
        src, dst, n = edges
        src, dst = np.concatenate([src, src[:300]]), np.concatenate([dst, dst[:300]])
        src, dst = ensure_sorted(src[src != 7], dst[src != 7])  # row 7 empty
        ref = _reference(src, dst, n)
        store = build_reordered_store(src, dst, n, order="degree", inner="packed")
        hub = int(np.argmax(ref.degrees()))
        batch = np.concatenate([rng.integers(0, n, 200), [hub, 7, hub, 7, hub]])
        flat, offsets = store.neighbors_batch(batch)
        rflat, roffsets = ref.neighbors_batch(batch)
        assert flat.dtype == store.row_dtype
        assert np.array_equal(offsets, roffsets)
        assert np.array_equal(flat, rflat)

    @pytest.mark.parametrize("kind,opts", [("packed", {}), ("disk", {"segment_bytes": 2048}),
                                           ("sharded", {"shards": 3})],
                             ids=["packed", "disk", "sharded"])
    def test_inner_store_gets_strictly_increasing_keys(self, rng, edges, kind, opts):
        """One argsort hands the inner store its keys in increasing order,
        so its batch path neither deduplicates nor expands; the one
        fused sort puts the rows back in batch order."""
        src, dst, n = edges
        built = build_reordered_store(src, dst, n, order="degree", inner=kind, **opts)
        counted = CountingStore(built.inner)
        store = ReorderedStore(counted, built.perm, ordering="degree")
        ref = _reference(src, dst, n)
        hub = int(np.argmax(ref.degrees()))
        batches = [rng.integers(0, n, 200), np.arange(n)[::-1], [5], [hub, 7, hub, 7]]
        for batch in batches:
            flat, offsets = store.neighbors_batch(batch)
            rflat, roffsets = ref.neighbors_batch(batch)
            assert flat.dtype == store.row_dtype
            assert np.array_equal(offsets, roffsets)
            assert np.array_equal(np.asarray(flat, dtype=np.int64), rflat)
        assert len(counted.calls) == len(batches)
        for keys in counted.calls:
            assert keys.shape[0] == 1 or bool(np.all(keys[1:] > keys[:-1]))

    @pytest.mark.parametrize("order", ORDERINGS)
    def test_to_csr_is_original_graph(self, edges, order):
        src, dst, n = edges
        store = build_reordered_store(src, dst, n, order=order, inner="packed")
        assert store.to_csr() == _reference(src, dst, n)


class TestSaveLoad:
    @pytest.mark.parametrize("inner", ["packed", "compact"])
    def test_roundtrip(self, tmp_path, edges, inner):
        src, dst, n = edges
        store = build_reordered_store(src, dst, n, order="degree", inner=inner)
        path = tmp_path / "reordered.npz"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.ordering == "degree"
        assert np.array_equal(loaded.perm, store.perm)
        assert loaded.to_csr() == store.to_csr()
        assert loaded.bits_per_edge() == store.bits_per_edge()

    def test_unsupported_inner_refused(self, edges, tmp_path):
        src, dst, n = edges
        store = build_reordered_store(src, dst, n, order="degree", inner="adjlist")
        with pytest.raises(ValidationError, match="packed or compact"):
            save_store(store, tmp_path / "bad.npz")


class TestValidation:
    def test_perm_must_be_permutation(self, edges):
        src, dst, n = edges
        inner = open_store("packed", src, dst, n, sort=True)
        with pytest.raises(ValidationError):
            ReorderedStore(inner, np.zeros(n, dtype=np.int64))
        with pytest.raises(ValidationError):
            ReorderedStore(inner, np.arange(n - 1))

    @pytest.mark.parametrize("perm", [[0, -1], [0, 2]], ids=["negative", "past-n"])
    def test_out_of_range_entry_refused(self, perm):
        """An entry outside ``[0, n)`` is one line, not a wrapped index
        accepted or an ``IndexError``."""
        inner = open_store("packed", [0], [1], 2)
        with pytest.raises(ValidationError, match=r"must lie in \[0, 2\)"):
            ReorderedStore(inner, perm)

    def test_no_direct_nesting(self, edges):
        src, dst, n = edges
        with pytest.raises(ValidationError, match="nest"):
            build_reordered_store(src, dst, n, inner="reordered")

    def test_unknown_ordering_propagates(self, edges):
        src, dst, n = edges
        with pytest.raises(ValidationError, match="unknown ordering"):
            build_reordered_store(src, dst, n, order="zorp")

    def test_node_out_of_range(self, edges):
        src, dst, n = edges
        store = build_reordered_store(src, dst, n)
        with pytest.raises(QueryError):
            store.neighbors(n)
        with pytest.raises(QueryError):
            store.neighbors_batch(np.array([-1]))


class TestAccounting:
    def test_memory_counts_id_tables(self, edges):
        src, dst, n = edges
        store = build_reordered_store(src, dst, n, inner="packed")
        assert store.memory_bytes() == (
            store.inner.memory_bytes() + 2 * store.perm.itemsize * n
        )

    def test_bits_per_edge_is_inner_only(self, edges):
        src, dst, n = edges
        store = build_reordered_store(src, dst, n, inner="packed")
        assert store.bits_per_edge() == store.inner.bits_per_edge()

    def test_capability_forwarding(self, edges):
        src, dst, n = edges
        gap = build_reordered_store(src, dst, n, inner="gap")
        assert gap.gap_encoded is True
        plain = build_reordered_store(src, dst, n, inner="packed")
        assert plain.gap_encoded is False
        with pytest.raises(AttributeError):
            build_reordered_store(src, dst, n, inner="adjlist").gap_encoded


class TestNarrowIdTables:
    """``perm`` and ``inv`` take the narrowest unsigned width that holds
    ``n - 1``; replies, accounting and the saved file do not change."""

    @pytest.mark.parametrize("n,width", [(200, np.uint8), (300, np.uint16),
                                         (70_000, np.uint32)])
    @pytest.mark.parametrize("kind,opts", [("packed", {}),
                                           ("compact", {"segment_bytes": 2048}),
                                           ("disk", {"segment_bytes": 2048})],
                             ids=["packed", "compact", "disk"])
    def test_replies_equal_the_graph(self, rng, tmp_path, n, width, kind, opts):
        m = 3000
        src, dst = ensure_sorted(rng.integers(0, n, m), rng.integers(0, n, m))
        store = build_reordered_store(src, dst, n, order="degree", inner=kind, **opts)
        ref = open_store(kind, src, dst, n, **opts)
        assert store.perm.dtype == store.inv.dtype == width
        assert store.memory_bytes() == store.inner.memory_bytes() + 2 * np.dtype(width).itemsize * n
        hub = int(np.argmax(ref.degrees()))
        nodes = np.concatenate([rng.integers(0, n, 100), [0, n - 1, hub]])
        for u in nodes.tolist():
            got, want = store.neighbors(u), ref.neighbors(u)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        batch = np.concatenate([rng.integers(0, n, 500), [n - 1, hub, n - 1]])
        for got, want in zip(store.neighbors_batch(batch), ref.neighbors_batch(batch)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for u, v in zip(src[::50].tolist(), dst[::50].tolist()):
            assert store.has_edge(u, v)
        for u, v in zip(rng.integers(0, n, 100).tolist(), rng.integers(0, n, 100).tolist()):
            assert store.has_edge(u, v) == ref.has_edge(u, v)
        got, want = store.degrees(), ref.degrees()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert store.to_csr() == ref.to_csr()
        if kind != "disk":
            path = tmp_path / "reordered.npz"
            save_store(store, path)
            with np.load(path) as data:
                assert data["perm"].dtype == np.int64
                assert np.array_equal(data["perm"], store.perm)
            assert load_store(path).perm.dtype == width
