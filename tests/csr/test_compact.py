"""CompactStore: adaptive-codec packed CSR, parity with BitPackedCSR."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack.bitarray import BitArray
from repro.bitpack.segcodec import SEGMENT_CODECS
from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.compact import CompactStore, build_compact_csr
from repro.csr.packed import build_bitpacked_csr
from repro.errors import CodecError, QueryError
from repro.stores import load_store, save_store

CONFIGS = [
    ("auto-1seg", None, 1 << 20),
    ("auto-tiny-segs", None, 256),
    ("all-codecs", SEGMENT_CODECS, 512),
    ("varint-only", "varint", 1 << 20),
]


@pytest.fixture
def packed_pair(sorted_edges):
    src, dst, n = sorted_edges
    return build_bitpacked_csr(src, dst, n, None), (src, dst, n)


@pytest.mark.parametrize("name,codecs,seg_bytes", CONFIGS)
class TestParity:
    def test_rows_match_packed(self, packed_pair, name, codecs, seg_bytes):
        packed, (src, dst, n) = packed_pair
        store = build_compact_csr(
            src, dst, n, codecs=codecs, segment_bytes=seg_bytes
        )
        assert store.num_nodes == packed.num_nodes
        assert store.num_edges == packed.num_edges
        for u in range(n):
            assert store.degree(u) == packed.degree(u)
            assert np.array_equal(store.neighbors(u), packed.neighbors(u))

    def test_batch_matches_packed(self, rng, packed_pair, name, codecs, seg_bytes):
        packed, (src, dst, n) = packed_pair
        store = build_compact_csr(
            src, dst, n, codecs=codecs, segment_bytes=seg_bytes
        )
        batch = rng.integers(0, n, 300)  # duplicates included
        flat, offsets = store.neighbors_batch(batch)
        pflat, poffsets = packed.neighbors_batch(batch)
        assert np.array_equal(offsets, poffsets)
        assert np.array_equal(flat, pflat)

    def test_has_edge(self, rng, packed_pair, name, codecs, seg_bytes):
        packed, (src, dst, n) = packed_pair
        store = build_compact_csr(
            src, dst, n, codecs=codecs, segment_bytes=seg_bytes
        )
        for u, v in zip(rng.integers(0, n, 80), rng.integers(0, n, 80)):
            assert store.has_edge(int(u), int(v)) == packed.has_edge(int(u), int(v))

    def test_to_csr_roundtrip(self, packed_pair, name, codecs, seg_bytes):
        packed, (src, dst, n) = packed_pair
        store = build_compact_csr(
            src, dst, n, codecs=codecs, segment_bytes=seg_bytes
        )
        assert store.to_csr() == packed.to_csr()

    def test_save_load(self, tmp_path, packed_pair, name, codecs, seg_bytes):
        packed, (src, dst, n) = packed_pair
        store = build_compact_csr(
            src, dst, n, codecs=codecs, segment_bytes=seg_bytes
        )
        path = tmp_path / "compact.npz"
        save_store(store, path)
        loaded = load_store(path)
        assert loaded.to_csr() == store.to_csr()
        assert loaded.bits_per_edge() == store.bits_per_edge()
        assert loaded.codec_breakdown() == store.codec_breakdown()


class TestAccounting:
    def test_beats_fixed_width_on_gappy_graph(self, rng):
        # sparse ids over a wide space: varint gaps crush the fixed width
        n, m = 4000, 20_000
        src = np.repeat(np.arange(0, n, 4), m // (n // 4))
        dst = rng.integers(0, n, src.shape[0])
        src, dst = ensure_sorted(src, dst)
        packed = build_bitpacked_csr(src, dst, n, None)
        store = build_compact_csr(src, dst, n)
        assert store.bits_per_edge() < packed.bits_per_edge()

    def test_codec_breakdown_totals(self, sorted_edges):
        src, dst, n = sorted_edges
        store = build_compact_csr(src, dst, n, segment_bytes=512)
        breakdown = store.codec_breakdown()
        assert sum(r["edges"] for r in breakdown.values()) == store.num_edges
        assert sum(r["segments"] for r in breakdown.values()) == len(store.segments)
        assert set(breakdown) <= set(SEGMENT_CODECS)

    def test_executor_parity(self, executor, sorted_edges):
        src, dst, n = sorted_edges
        serial = build_compact_csr(src, dst, n)
        parallel = build_compact_csr(src, dst, n, executor)
        assert serial.to_csr() == parallel.to_csr()


class TestEdgeCases:
    def test_empty_graph(self):
        store = build_compact_csr(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 5
        )
        assert store.num_edges == 0
        flat, offsets = store.neighbors_batch(np.arange(5))
        assert flat.shape == (0,)
        assert np.array_equal(offsets, np.zeros(6, dtype=np.int64))

    def test_single_node_self_loop(self):
        store = build_compact_csr(np.array([0]), np.array([0]), 1)
        assert np.array_equal(store.neighbors(0), [0])
        assert store.has_edge(0, 0)

    def test_rows_with_empty_runs(self, rng):
        # nodes 10..19 have no edges at all (empty row runs skip segments)
        src = np.concatenate([np.repeat(np.arange(10), 5),
                              np.repeat(np.arange(20, 30), 5)])
        dst = rng.integers(0, 30, src.shape[0])
        src, dst = ensure_sorted(src, dst)
        store = build_compact_csr(src, dst, 30, segment_bytes=64)
        graph = build_csr_serial(src, dst, 30)
        for u in range(30):
            assert np.array_equal(store.neighbors(u), graph.neighbors(u))

    def test_node_out_of_range(self, sorted_edges):
        src, dst, n = sorted_edges
        store = build_compact_csr(src, dst, n)
        with pytest.raises(QueryError):
            store.neighbors(n)
        with pytest.raises(QueryError):
            store.neighbors_batch(np.array([0, n]))

    def test_unknown_codec_rejected(self, sorted_edges):
        src, dst, n = sorted_edges
        with pytest.raises(CodecError, match="unknown codec"):
            build_compact_csr(src, dst, n, codecs="gzip")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=120))
    def test_property_parity(self, edges):
        n = 31
        src = np.array([u for u, _ in edges], dtype=np.int64)
        dst = np.array([v for _, v in edges], dtype=np.int64)
        src, dst = ensure_sorted(src, dst)
        store = build_compact_csr(src, dst, n, codecs=SEGMENT_CODECS,
                                  segment_bytes=64)
        graph = build_csr_serial(src, dst, n)
        for u in range(n):
            assert np.array_equal(store.neighbors(u), graph.neighbors(u))


def _mixed_codec_graph():
    """Deterministic graph whose regions favour different codecs, so a
    small segment size yields all three codec classes (no RNG: the
    byte-level figures below were recorded on the pre-arena store)."""
    n = 2000
    src, dst = [], []
    for u in range(n):
        if u % 17 == 0:
            continue  # empty rows, some on segment boundaries
        if u < 300:  # runs of consecutive ids: one-bit gaps
            row = [(u + 1 + j) % n for j in range(40)]
        elif u < 1200:  # gaps of 64..127: one varint byte each
            row = [(u * 7) % 900 + j * 64 + (j * j * 5) % 60 for j in range(16)]
        else:  # two far-apart neighbours: wide, even gaps
            row = [(u * 3) % 1000, 1000 + (u * 11) % 1000]
        for v in sorted(set(row)):
            src.append(u)
            dst.append(v)
    return np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64), n


class TestSegmentArena:
    """One buffer under every segment: a batch decodes per codec class,
    not per segment, and every stored byte stays what it was."""

    @pytest.fixture(scope="class")
    def stores(self):
        src, dst, n = _mixed_codec_graph()
        store = build_compact_csr(
            src, dst, n, codecs="fixed,varint,zeta2", segment_bytes=2048
        )
        return store, build_bitpacked_csr(src, dst, n, None)

    def test_three_codec_classes_many_segments(self, stores):
        store, _ = stores
        mix = store.codec_breakdown()
        assert {k: v["segments"] for k, v in mix.items()} == {
            "zeta2": 8, "varint": 8, "fixed": 2,
        }

    def test_bytes_are_the_pre_arena_store_s(self, stores):
        """Recorded on the parent commit for this graph."""
        import zlib

        store, _ = stores
        payload = store.npz_payload()
        crc = 0
        for key in sorted(payload):
            crc = zlib.crc32(
                np.asarray(payload[key]).tobytes(), zlib.crc32(key.encode(), crc)
            )
        assert len(payload) == 114
        assert crc == 1261690942
        assert store.memory_bytes() == 27139
        assert store.bits_per_edge() == 8.152896954970005

    def test_segments_are_views_of_one_buffer(self, stores):
        store, _ = stores
        arena = store._arena.bits.buffer
        for seg in store.segments:
            assert np.shares_memory(seg.payload.buffer, arena)
            if seg.starts is not None:
                assert np.shares_memory(seg.starts.buffer, arena)

    def _boundary_keys(self, store):
        firsts = np.asarray([s.first_row for s in store.segments])
        lasts = firsts + np.asarray([s.num_rows for s in store.segments]) - 1
        return np.concatenate([firsts, lasts, np.maximum(firsts - 1, 0)])

    def test_batches_across_segments_match_packed(self, stores, rng):
        store, packed = stores
        n = store.num_nodes
        empty = np.arange(0, n, 17)
        batches = [
            self._boundary_keys(store),
            np.concatenate([self._boundary_keys(store)[::-1], empty[:40]]),
            rng.integers(0, n, 500),  # unsorted, duplicates
            np.repeat(rng.integers(0, n, 40), 3),
            empty,  # nothing to decode at all
            np.asarray([1999, 0, 1999, 17, 300, 299, 1200, 1199]),
            np.arange(n),
            np.arange(n)[::-1],
        ]
        batches += [np.asarray([u]) for u in self._boundary_keys(store)[:12]]
        for batch in batches:
            flat, offsets = store.neighbors_batch(batch)
            pflat, poffsets = packed.neighbors_batch(batch)
            assert flat.dtype == pflat.dtype == np.uint64
            assert np.array_equal(offsets, poffsets)
            assert np.array_equal(flat, pflat)

    def test_portable_fallback_reads_the_same(self, stores, rng, monkeypatch):
        from repro.bitpack import fixed, varint

        store, packed = stores
        batch = np.concatenate([self._boundary_keys(store), rng.integers(0, 2000, 60)])
        want = packed.neighbors_batch(batch)
        monkeypatch.setattr(fixed, "_LITTLE_ENDIAN", False)
        monkeypatch.setattr(varint, "_LITTLE_ENDIAN", False)
        got = store.neighbors_batch(batch)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_one_kernel_call_per_codec_class(self, stores, monkeypatch):
        from repro.bitpack import segcodec

        store, _ = stores
        calls = []
        kernel = segcodec.varint_decode
        monkeypatch.setattr(
            segcodec, "varint_decode",
            lambda *a, **k: calls.append(1) or kernel(*a, **k),
        )
        varint_rows = np.concatenate([
            np.arange(s.first_row, s.first_row + s.num_rows)
            for s in store.segments if s.codec == "varint"
        ])
        store.neighbors_batch(varint_rows)  # eight varint segments
        assert len(calls) == 1
        store.neighbors_batch(np.arange(store.num_nodes))  # all 18 segments
        assert len(calls) == 2

    def test_corrupt_starts_table_raises(self, stores):
        """A window pushed past its segment's payload is refused, not
        read out of the neighbouring segment."""
        store, _ = stores
        seg = next(s for s in store.segments if s.codec == "varint")
        bad = BitArray(seg.starts.buffer.copy(), seg.starts.nbits)
        last = seg.num_rows * seg.starts_width
        bad.write_uint(last, seg.starts_width, seg.payload.nbytes + 1)
        broken = CompactStore(
            store.num_nodes, store.num_edges, store.offsets, store.offset_width,
            [replace(s, starts=bad) if s is seg else s for s in store.segments],
        )
        with pytest.raises(CodecError):
            broken.neighbors(seg.first_row + seg.num_rows - 1)

    def test_save_load_roundtrip_keeps_the_bytes(self, stores, tmp_path):
        store, packed = stores
        save_store(store, tmp_path / "mixed.npz")
        loaded = load_store(tmp_path / "mixed.npz")
        a, b = store.npz_payload(), loaded.npz_payload()
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert loaded.memory_bytes() == store.memory_bytes()
        batch = np.arange(0, 2000, 3)
        assert np.array_equal(
            loaded.neighbors_batch(batch)[0], packed.neighbors_batch(batch)[0]
        )


def _store_of_rows(rows, codec, segment_bytes=64):
    """A compact store over arbitrary sorted ``uint64`` rows (values need
    not be node ids: the decoders never look at ``num_nodes``)."""
    from repro.bitpack.fixed import pack_fixed
    from repro.bitpack.segcodec import encode_row_segments
    from repro.utils import bits_for_value

    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    values = np.concatenate([np.asarray(r, dtype=np.uint64) for r in rows])
    width = bits_for_value(int(indptr[-1]))
    segments = [enc for _, enc in encode_row_segments(
        indptr, lambda f0, f1, _: values[f0:f1], 64, segment_bytes, codec)]
    return CompactStore(
        len(rows), int(indptr[-1]), pack_fixed(indptr, width), width, segments)


class TestOneRowKernel:
    """A one-key batch is decoded on scalars (two offset fields, two
    row-starts fields, a slice of the payload): the same rows, and the
    same refusals, as the batch path gives for the same keys."""

    @staticmethod
    def _rows(rng, top):
        rows = [np.unique(rng.integers(0, 5_000, int(d)))
                for d in rng.integers(0, 9, 60)]
        rows[7] = np.unique(rng.integers(0, 1 << 40, 700))  # longer than a segment
        rows[20] = np.asarray([3, 1 << 57, (1 << 57) + 5, top], dtype=np.uint64)
        rows[0] = rows[31] = rows[59] = np.zeros(0, dtype=np.int64)
        return rows

    @pytest.mark.parametrize("codec", SEGMENT_CODECS)
    def test_every_row_alone_equals_itself_in_a_batch(self, rng, codec, monkeypatch):
        from repro.bitpack.segcodec import SegmentArena

        # 9- and 10-byte varints; the zeta coder stops at 63-bit gaps
        top = (1 << 64) - 1 if codec in ("fixed", "varint") else (1 << 62)
        rows = self._rows(rng, top)
        store = _store_of_rows(rows, codec)
        assert len(store.segments) > 5 and {s.codec for s in store.segments} == {codec}
        ones = []
        kernel = SegmentArena.decode_row
        monkeypatch.setattr(
            SegmentArena, "decode_row",
            lambda self, *a: ones.append(a) or kernel(self, *a))
        keys = np.arange(len(rows))
        flat, offs = store.neighbors_batch(keys)
        assert ones == []  # a multi-key batch takes the vectorised path
        edges = {s.first_row for s in store.segments}
        edges |= {s.first_row + s.num_rows - 1 for s in store.segments}
        assert {0, 7, 20, 31, 59} | edges <= set(keys.tolist())
        for u, want in enumerate(rows):
            alone, alone_offs = store.neighbors_batch([u])
            for got in (store.neighbors(u), alone, flat[offs[u]:offs[u + 1]]):
                assert got.dtype == np.uint64 and got.tolist() == want.tolist()
            assert alone_offs.tolist() == [0, len(want)]
            assert store.degree(u) == len(want)
        assert len(ones) == 2 * sum(len(r) > 0 for r in rows)

    def _broken(self, store, seg, entry, value):
        bad = BitArray(seg.starts.buffer.copy(), seg.starts.nbits)
        bad.write_uint(entry * seg.starts_width, seg.starts_width, value)
        return CompactStore(
            store.num_nodes, store.num_edges, store.offsets, store.offset_width,
            [replace(s, starts=bad) if s is seg else s for s in store.segments])

    def test_both_paths_refuse_a_corrupt_window_alike(self, rng):
        store = _store_of_rows(self._rows(rng, (1 << 64) - 1), "varint")
        seg = store.segments[2]
        last = seg.first_row + seg.num_rows - 1
        assert store.degree(last)
        # the last row's window pushed past the segment's payload
        broken = self._broken(store, seg, seg.num_rows, seg.payload.nbytes + 1)
        message = "^row window runs past its segment's payload$"
        with pytest.raises(CodecError, match=message):
            broken.neighbors(last)
        with pytest.raises(CodecError, match=message):
            broken.neighbors_batch([last - 1, last])
        # row 20 ends in a 10-byte value: a window one byte short of it
        seg = next(s for s in store.segments
                   if s.first_row <= 20 < s.first_row + s.num_rows)
        local = 20 - seg.first_row + 1
        end = int(store._arena.bits.read_uint(
            int(store._arena.starts_bit[store.segments.index(seg)])
            + local * seg.starts_width, seg.starts_width))
        broken = self._broken(store, seg, local, end - 1)
        with pytest.raises(CodecError, match="^truncated varint stream"):
            broken.neighbors(20)
        with pytest.raises(CodecError, match="^truncated varint stream"):
            broken.neighbors_batch([19, 20])
