"""DiskStore correctness: bit-exact parity with the in-memory packed CSR."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csr.builder import ensure_sorted
from repro.csr.graph import CSRGraph
from repro.csr.packed import BitPackedCSR, build_bitpacked_csr
from repro.disk import DiskStore, write_disk_store
from repro.disk import store as store_module
from repro.errors import DiskFormatError, NotSortedError, QueryError, ValidationError
from repro.parallel import CostModel, SerialExecutor, SimulatedMachine
from repro.query import RowCache, batch_edge_existence, batch_neighbors, capabilities
from repro.query.edges import single_edge_exists
from repro.shard import build_sharded_store
from repro.stores import load_store, open_store
from tests.disk.test_format_compat import _downgrade_manifest


def _random_graph(seed, n, m):
    rng = np.random.default_rng(seed)
    src = np.sort(rng.integers(0, n, m))
    dst = rng.integers(0, n, m)
    return ensure_sorted(src, dst)


@pytest.fixture(params=[False, True], ids=["plain", "gap"])
def pair(request, tmp_path):
    """(BitPackedCSR, DiskStore) of the same graph, tiny segments."""
    src, dst = _random_graph(7, 300, 2500)
    packed = build_bitpacked_csr(src, dst, 300, sort=True,
                                 gap_encode=request.param)
    disk = write_disk_store(packed, tmp_path / "store", segment_bytes=256)
    return packed, disk


class TestParity:
    def test_batch_bit_exact(self, pair, rng):
        packed, disk = pair
        q = rng.integers(0, packed.num_nodes, 500)
        f1, o1 = packed.neighbors_batch(q)
        f2, o2 = disk.neighbors_batch(q)
        assert f2.dtype == f1.dtype
        assert np.array_equal(f1, f2)
        assert np.array_equal(o1, o2)

    def test_scalar_surface(self, pair):
        packed, disk = pair
        for u in (0, 1, 151, packed.num_nodes - 1):
            assert np.array_equal(packed.neighbors(u), disk.neighbors(u))
            assert packed.degree(u) == disk.degree(u)
            assert packed.offset(u) == disk.offset(u)
        assert np.array_equal(packed.degrees(), disk.degrees())

    def test_has_edge(self, pair, rng):
        packed, disk = pair
        for _ in range(50):
            u = int(rng.integers(0, packed.num_nodes))
            v = int(rng.integers(0, packed.num_nodes))
            assert packed.has_edge(u, v) == disk.has_edge(u, v)

    def test_to_csr_roundtrip(self, pair):
        packed, disk = pair
        g1, g2 = packed.to_csr(), disk.to_csr()
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.indices, g2.indices)

    def test_query_kernels_match(self, pair, rng):
        packed, disk = pair
        q = rng.integers(0, packed.num_nodes, 200)
        for ex in (SerialExecutor(), SimulatedMachine(4)):
            r1 = batch_neighbors(packed, q, ex)
            r2 = batch_neighbors(disk, q, ex)
            for a, b in zip(r1, r2):
                assert np.array_equal(a, b)
        pairs = np.stack([q[:100], rng.integers(0, packed.num_nodes, 100)], axis=1)
        for method in ("scan", "bisect"):
            assert np.array_equal(
                batch_edge_existence(packed, pairs, SimulatedMachine(3), method=method),
                batch_edge_existence(disk, pairs, SimulatedMachine(3), method=method),
            )
        u, v = int(q[0]), int(disk.neighbors(int(q[0]))[0]) if disk.degree(int(q[0])) else 0
        assert single_edge_exists(packed, u, v, SimulatedMachine(2)) == \
            single_edge_exists(disk, u, v, SimulatedMachine(2))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(1, 80),
        m=st.integers(0, 300),
        gap=st.booleans(),
        segment_bytes=st.sampled_from([16, 64, 1024]),
        codecs=st.sampled_from([None, "auto", "varint", "fixed", "zeta2"]),
    )
    def test_property_bit_exact(self, tmp_path_factory, seed, n, m, gap,
                                segment_bytes, codecs):
        src, dst = _random_graph(seed, n, m)
        packed = build_bitpacked_csr(src, dst, n, sort=True, gap_encode=gap)
        out = tmp_path_factory.mktemp("ds")
        disk = write_disk_store(packed, out, segment_bytes=segment_bytes,
                                codecs=codecs)
        refs = [packed]
        if codecs is not None:
            refs.append(open_store("compact", src, dst, n, codecs=codecs,
                                   segment_bytes=segment_bytes))
        rng = np.random.default_rng(seed ^ 0xABC)
        for q in (rng.integers(0, n, 64), rng.integers(0, n, 1)):
            f2, o2 = disk.neighbors_batch(q)
            for ref in refs:
                f1, o1 = ref.neighbors_batch(q)
                assert f1.dtype == f2.dtype and o1.dtype == o2.dtype
                assert np.array_equal(f1, f2) and np.array_equal(o1, o2)
        assert np.array_equal(packed.degrees(), disk.degrees())


class TestCostModel:
    def test_page_touches_metered_and_drained(self, pair):
        _, disk = pair
        disk.neighbors_batch(np.arange(50))
        touched = disk.take_page_touches()
        assert touched > 0
        assert disk.take_page_touches() == 0

    def test_page_touches_bounded_by_distinct_pages(self, pair):
        # querying one row twice cannot touch more pages than the store
        # maps: the counter is a union of windows, not a sum
        _, disk = pair
        disk.take_page_touches()
        disk.neighbors_batch(np.array([5, 5, 5, 5]))
        once = disk.take_page_touches()
        disk.neighbors_batch(np.array([5]))
        assert disk.take_page_touches() == once

    def test_capability_flag(self, pair):
        packed, disk = pair
        assert capabilities(disk).counts_page_touches
        assert not capabilities(packed).counts_page_touches

    def test_simulated_cost_parity_with_zero_page_weight(self, pair, rng):
        """With page_touch_ns=0 the simulated clock is bit-identical to
        the in-memory packed store: every other charge matches."""
        packed, disk = pair
        q = rng.integers(0, packed.num_nodes, 300)
        zero_pages = CostModel(page_touch_ns=0.0)
        m1 = SimulatedMachine(4, cost_model=zero_pages)
        m2 = SimulatedMachine(4, cost_model=zero_pages)
        batch_neighbors(packed, q, m1)
        batch_neighbors(disk, q, m2)
        assert m1.elapsed_ns() == m2.elapsed_ns()

    def test_page_weight_strictly_additive(self, pair, rng):
        packed, disk = pair
        q = rng.integers(0, packed.num_nodes, 300)
        m_disk = SimulatedMachine(4)
        m_mem = SimulatedMachine(4)
        batch_neighbors(disk, q, m_disk)
        batch_neighbors(packed, q, m_mem)
        assert m_disk.elapsed_ns() > m_mem.elapsed_ns()


def _skewed_graph():
    """3,000 nodes, 60,000 edges: 750 empty rows, hub rows of small gaps
    under large ids (``auto`` keeps varint there) and a uniform tail
    (``auto`` keeps fixed there)."""
    rng = np.random.default_rng(42)
    n, m = 3000, 60000
    src = rng.integers(0, n, m) ** 2 // n
    dst = np.where(src < 300, rng.integers(n - 500, n, m), rng.integers(0, n, m))
    return (*ensure_sorted(src, dst), n)


# take_page_touches() after each batch of the seeded schedule below, per
# layout, recorded before the disk store read its files through
# SegmentArena.  8 KiB segments: a file spans two pages, a batch several
# files.
PAGE_TOUCH_PINS = {
    "plain": [2, 2, 10, 24, 1, 2, 9, 23, 2, 2, 10, 24],
    "gap": [2, 2, 10, 24, 1, 2, 9, 23, 2, 2, 10, 24],
    "auto": [2, 2, 9, 24, 1, 2, 9, 24, 2, 2, 11, 24],
    "varint": [2, 2, 11, 25, 1, 2, 11, 25, 2, 2, 15, 24],
    "zeta2": [2, 2, 11, 23, 1, 2, 11, 23, 2, 2, 15, 22],
    "v1": [2, 2, 10, 24, 1, 2, 9, 23, 2, 2, 10, 24],
}


class TestPageTouchPins:
    @pytest.mark.parametrize("layout", list(PAGE_TOUCH_PINS))
    def test_page_touches_per_batch(self, tmp_path, layout):
        src, dst, n = _skewed_graph()
        packed = build_bitpacked_csr(src, dst, n, gap_encode=layout in ("gap", "v1"))
        codecs = layout if layout in ("auto", "varint", "zeta2") else None
        disk = write_disk_store(packed, tmp_path / "d", codecs=codecs, segment_bytes=8192)
        if layout == "v1":
            _downgrade_manifest(tmp_path / "d")
            disk = DiskStore.open(tmp_path / "d")
            assert disk.manifest.version == 1
        empty = np.flatnonzero(packed.degrees() == 0)
        rng = np.random.default_rng(2024)
        touched = []
        for turn, size in enumerate((1, 2, 16, 256) * 3):
            keys = rng.integers(0, n, size)
            if size == 1 and turn == 4:
                keys[0] = empty[0]
            elif size > 1:
                keys[1] = rng.choice(empty)  # an empty row
                keys[-1] = keys[0]  # a repeated key
            flat, offs = disk.neighbors_batch(keys)
            pflat, poffs = packed.neighbors_batch(keys)
            assert np.array_equal(flat, pflat) and np.array_equal(offs, poffs)
            touched.append(disk.take_page_touches())
        assert touched == PAGE_TOUCH_PINS[layout]


class TestComposition:
    def test_inside_sharded_store(self, tmp_path, rng):
        src, dst = _random_graph(3, 200, 1500)
        ref = build_bitpacked_csr(src, dst, 200, sort=True)
        store = build_sharded_store(
            src, dst, 200, shards=3, inner="disk", sort=True,
            path=tmp_path / "sharded", segment_bytes=128,
        )
        assert all(isinstance(s, DiskStore) for s in store.shards)
        # per-shard sub-directories, not one clobbered path
        assert sorted(p.name for p in (tmp_path / "sharded").iterdir()) == [
            "shard-0", "shard-1", "shard-2",
        ]
        q = rng.integers(0, 200, 300)
        f1, o1 = ref.neighbors_batch(q)
        f2, o2 = store.neighbors_batch(q)
        assert np.array_equal(f1, f2) and np.array_equal(o1, o2)
        store.neighbors_batch(q)
        assert store.take_page_touches() >= 0
        assert capabilities(store).counts_page_touches

    def test_sharded_over_memory_has_no_page_surface(self, rng):
        src, dst = _random_graph(3, 50, 200)
        store = build_sharded_store(src, dst, 50, shards=2, sort=True)
        assert not capabilities(store).counts_page_touches

    def test_under_row_cache(self, pair, rng):
        packed, disk = pair
        cached = RowCache(disk, capacity=10_000)
        assert capabilities(cached).counts_page_touches
        q = rng.integers(0, packed.num_nodes, 100)
        f1, o1 = packed.neighbors_batch(q)
        f2, o2 = cached.neighbors_batch(q)
        assert np.array_equal(f1, f2) and np.array_equal(o1, o2)
        cached.take_page_touches()
        cached.neighbors_batch(q)  # all hits: no new pages faulted
        assert cached.take_page_touches() == 0
        assert not capabilities(RowCache(packed, capacity=8)).counts_page_touches

    def test_registry_builds_in_temp_dir(self, rng):
        src, dst = _random_graph(11, 80, 400)
        store = open_store("disk", src, dst, 80)
        path = store.path
        assert path.exists()
        q = rng.integers(0, 80, 50)
        ref = open_store("packed", src, dst, 80)
        f1, o1 = ref.neighbors_batch(q)
        f2, o2 = store.neighbors_batch(q)
        assert np.array_equal(f1, f2) and np.array_equal(o1, o2)

    def test_registry_honors_path(self, tmp_path, rng):
        src, dst = _random_graph(11, 80, 400)
        store = open_store("disk", src, dst, 80, path=tmp_path / "here")
        assert store.path == tmp_path / "here"
        assert (tmp_path / "here" / "manifest.json").is_file()

    def test_registry_passes_ordering_and_codecs_through(self, tmp_path, rng):
        """``order=`` / ``codecs=`` are ``write_disk_store``'s own
        parameters: the directory equals the hand-composed one, and the
        store answers in original ids."""
        from repro.csr.builder import build_csr_serial, ensure_sorted
        from repro.reorder import compute_ordering

        src, dst = _random_graph(11, 80, 400)
        store = open_store("disk", src, dst, 80, path=tmp_path / "kind",
                           order="degree", codecs="auto", sort=True)
        s2, d2 = ensure_sorted(src, dst)
        perm = compute_ordering("degree", build_csr_serial(s2, d2, 80))
        write_disk_store(
            build_bitpacked_csr(perm[src], perm[dst], 80, sort=True),
            tmp_path / "hand", codecs="auto", ordering="degree", perm=perm,
        ).close()
        assert ((tmp_path / "kind" / "manifest.json").read_bytes()
                == (tmp_path / "hand" / "manifest.json").read_bytes())
        q = rng.integers(0, 80, 50)
        ref = open_store("packed", src, dst, 80, sort=True)
        f1, o1 = ref.neighbors_batch(q)
        f2, o2 = store.neighbors_batch(q)
        assert np.array_equal(f1, f2) and np.array_equal(o1, o2)


class TestOpenAndErrors:
    def test_reopen_is_bit_exact(self, pair, tmp_path):
        packed, disk = pair
        reopened = DiskStore.open(disk.path)
        q = np.arange(packed.num_nodes)
        f1, o1 = packed.neighbors_batch(q)
        f2, o2 = reopened.neighbors_batch(q)
        assert np.array_equal(f1, f2) and np.array_equal(o1, o2)

    def test_flipped_checksum_refused_on_open(self, pair):
        _, disk = pair
        seg = disk.manifest.columns[0]
        path = disk.path / seg.filename
        payload = bytearray(path.read_bytes())
        payload[0] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(DiskFormatError, match="checksum"):
            DiskStore.open(disk.path)
        # verify=False trusts the directory and still opens
        assert DiskStore.open(disk.path, verify=False).num_nodes == disk.num_nodes

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(DiskFormatError, match="manifest"):
            DiskStore.open(tmp_path / "nope")

    def test_unsorted_row_refused_on_open(self, tmp_path):
        # a plain directory written from an unchecked store: row 0 is [2, 0, 1]
        graph = CSRGraph([0, 3, 4, 4], [2, 0, 1, 1], None, validate=False)
        write_disk_store(BitPackedCSR.from_csr(graph), tmp_path / "d")
        with pytest.raises(NotSortedError) as info:
            load_store(tmp_path / "d")
        message = str(info.value)
        assert "\n" not in message and message.startswith(f"{tmp_path / 'd'}: ")
        assert message.endswith("rebuild the store from its edge list")
        # verify=False reads the manifest only: nothing is mapped or checked
        trusted = DiskStore.open(tmp_path / "d", verify=False)
        assert trusted.mapped_segments() == 0
        assert trusted.neighbors(0).tolist() == [2, 0, 1]

    def test_order_check_decodes_only_absolute_ids(self, pair, monkeypatch):
        packed, disk = pair
        decoded, kernel = [], DiskStore._decode_rows
        monkeypatch.setattr(DiskStore, "_decode_rows",
                            lambda self, keys: decoded.append(keys.shape[0]) or kernel(self, keys))
        unpacked, unpack = [], store_module.unpack_fixed
        monkeypatch.setattr(
            store_module, "unpack_fixed",
            lambda bits, count, *a, **k: unpacked.append(count) or unpack(bits, count, *a, **k))
        reopened = DiskStore.open(disk.path)
        # no row goes through the row path: iA, then each column file of
        # absolute ids, is unpacked whole, once
        assert decoded == []
        fields = [s.num_fields for s in (*disk.manifest.offsets, *disk.manifest.columns)]
        assert unpacked == ([] if packed.gap_encoded else fields)
        assert reopened.mapped_segments() == 0 and reopened.take_page_touches() == 0
        q = np.arange(packed.num_nodes)
        f1, o1 = packed.neighbors_batch(q)
        f2, o2 = reopened.neighbors_batch(q)
        assert np.array_equal(f1, f2) and np.array_equal(o1, o2)

    def test_query_errors(self, pair):
        _, disk = pair
        with pytest.raises(QueryError):
            disk.neighbors(disk.num_nodes)
        with pytest.raises(QueryError):
            disk.neighbors_batch(np.array([-1]))
        with pytest.raises(QueryError):
            disk.neighbors_batch(np.array([[0, 1]]))

    def test_weighted_refused(self, tmp_path):
        src = np.array([0, 0, 1])
        dst = np.array([1, 2, 2])
        packed = build_bitpacked_csr(src, dst, 3, weights=np.array([1, 2, 3]))
        with pytest.raises(ValidationError, match="weighted"):
            write_disk_store(packed, tmp_path / "w")


class TestAccountingAndLifecycle:
    def test_memory_is_lazy(self, pair):
        packed, disk = pair
        cold = DiskStore.open(disk.path, verify=False)
        assert cold.mapped_segments() == 0
        assert 0 < cold.memory_bytes() < cold.disk_bytes()
        cold.neighbors(5)
        assert cold.mapped_segments() > 0
        warm = cold.memory_bytes()
        assert warm > 0
        cold.close()
        assert cold.mapped_segments() == 0
        assert np.array_equal(cold.neighbors(5), packed.neighbors(5))  # remaps

    def test_disk_bytes_and_bits_per_edge(self, pair):
        packed, disk = pair
        assert disk.disk_bytes() == sum(
            (disk.path / s.filename).stat().st_size
            for s in (*disk.manifest.offsets, *disk.manifest.columns)
        )
        assert disk.bits_per_edge() > 0

    def test_context_manager(self, pair):
        _, disk = pair
        with DiskStore.open(disk.path, verify=False) as store:
            store.neighbors(1)
            assert store.mapped_segments() > 0
        assert store.mapped_segments() == 0

    def test_repr_mentions_layout(self, pair):
        _, disk = pair
        text = repr(disk)
        assert "DiskStore" in text and "segments=" in text


class TestEdgeCases:
    def test_empty_graph(self, tmp_path):
        packed = build_bitpacked_csr(
            np.zeros(0, np.int64), np.zeros(0, np.int64), 0
        )
        disk = write_disk_store(packed, tmp_path / "empty")
        assert disk.num_nodes == 0 and disk.num_edges == 0
        flat, offs = disk.neighbors_batch(np.zeros(0, np.int64))
        assert flat.size == 0 and offs.tolist() == [0]
        assert disk.degrees().size == 0
        assert DiskStore.open(disk.path).num_edges == 0

    def test_all_empty_rows(self, tmp_path):
        packed = build_bitpacked_csr(
            np.zeros(0, np.int64), np.zeros(0, np.int64), 17
        )
        disk = write_disk_store(packed, tmp_path / "hollow")
        assert disk.manifest.columns == ()  # no zero-byte segment files
        flat, offs = disk.neighbors_batch(np.arange(17))
        assert flat.size == 0
        assert offs.tolist() == [0] * 18
        assert disk.degree(16) == 0

    def test_single_edge(self, tmp_path):
        packed = build_bitpacked_csr(np.array([2]), np.array([0]), 3)
        disk = write_disk_store(packed, tmp_path / "one")
        assert disk.neighbors(2).tolist() == [0]
        assert disk.has_edge(2, 0) and not disk.has_edge(0, 2)
