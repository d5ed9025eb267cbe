"""Algorithm 4 (bit-packed CSR) and its query surface."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack.fixed import pack_fixed
from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.packed import BitPackedCSR, build_bitpacked_csr, pack_array_parallel
from repro.csr.graph import CSRGraph
from repro.errors import QueryError, ReproError, ValidationError
from repro.obs import Tracer
from repro.parallel import SimulatedMachine
from repro.stores import load_store, save_store


@pytest.fixture
def graph(sorted_edges):
    src, dst, n = sorted_edges
    return build_csr_serial(src, dst, n)


class TestPackArrayParallel:
    def test_identical_to_one_shot_pack(self, executor, rng):
        values = rng.integers(0, 1 << 9, 1234).astype(np.uint64)
        got = pack_array_parallel(values, 9, executor)
        assert got == pack_fixed(values, 9)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 65])
    def test_boundary_lengths(self, n):
        values = np.arange(n, dtype=np.uint64)
        got = pack_array_parallel(values, 7, SimulatedMachine(4))
        assert got == pack_fixed(values, 7)

    def test_unaligned_chunk_boundaries(self):
        """Chunk bit-offsets that are not byte aligned must still blit
        correctly (width 5, 13 elements over 3 chunks)."""
        values = np.arange(13, dtype=np.uint64)
        got = pack_array_parallel(values, 5, SimulatedMachine(3))
        assert got == pack_fixed(values, 5)

    def test_merge_charged_as_serial_copy(self):
        machine = SimulatedMachine(4)
        machine.tracer = Tracer()
        pack_array_parallel(np.arange(1000, dtype=np.uint64), 10, machine, label="x")
        kinds = {s.name: s.layer for s in machine.tracer.spans()}
        assert kinds["x:pack"] == "parallel"
        assert kinds["x:merge"] == "serial"

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            pack_array_parallel(np.zeros((2, 2), dtype=np.int64), 3)


class TestBitPackedCSR:
    def test_roundtrip(self, graph, executor):
        packed = BitPackedCSR.from_csr(graph, executor)
        back = packed.to_csr()
        assert np.array_equal(back.indptr, graph.indptr.astype(np.int64))
        assert np.array_equal(back.indices, graph.indices.astype(np.int64))

    def test_gap_encoded_roundtrip(self, graph, executor):
        packed = BitPackedCSR.from_csr(graph, executor, gap_encode=True)
        assert packed.gap_encoded
        back = packed.to_csr()
        assert np.array_equal(back.indices, graph.indices.astype(np.int64))

    def test_offsets_and_degrees(self, graph):
        packed = BitPackedCSR.from_csr(graph)
        assert packed.offset(0) == 0
        assert packed.offset(packed.num_nodes) == graph.num_edges
        assert np.array_equal(packed.degrees(), graph.degrees())
        for u in (0, 7, 100):
            assert packed.degree(u) == graph.degree(u)

    def test_neighbors_match(self, graph):
        packed = BitPackedCSR.from_csr(graph)
        gap = BitPackedCSR.from_csr(graph, gap_encode=True)
        for u in range(0, graph.num_nodes, 17):
            want = graph.neighbors(u).astype(np.int64).tolist()
            assert packed.neighbors(u).astype(np.int64).tolist() == want
            assert gap.neighbors(u).astype(np.int64).tolist() == want

    def test_has_edge_matches(self, graph, rng):
        packed = BitPackedCSR.from_csr(graph)
        for _ in range(100):
            u = int(rng.integers(0, graph.num_nodes))
            v = int(rng.integers(0, graph.num_nodes))
            assert packed.has_edge(u, v) == graph.has_edge(u, v)

    def test_query_range_checks(self, graph):
        packed = BitPackedCSR.from_csr(graph)
        with pytest.raises(QueryError):
            packed.neighbors(graph.num_nodes)
        with pytest.raises(QueryError):
            packed.degree(-1)
        with pytest.raises(QueryError):
            packed.offset(graph.num_nodes + 1)

    def test_memory_smaller_than_raw(self, graph):
        packed = BitPackedCSR.from_csr(graph)
        raw = graph.memory_bytes()
        assert packed.memory_bytes() < raw
        assert 0 < packed.bits_per_edge() < 64

    def test_gap_encoding_never_larger_on_sorted_rows(self, graph):
        plain = BitPackedCSR.from_csr(graph)
        gap = BitPackedCSR.from_csr(graph, gap_encode=True)
        assert gap.column_width <= plain.column_width

    def test_empty_graph(self):
        from repro.csr.graph import CSRGraph

        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        packed = BitPackedCSR.from_csr(g)
        assert packed.num_edges == 0
        assert packed.bits_per_edge() == 0.0
        assert packed.to_csr() == g

    def test_equality(self, graph):
        a = BitPackedCSR.from_csr(graph)
        b = BitPackedCSR.from_csr(graph, SimulatedMachine(7))
        assert a == b
        c = BitPackedCSR.from_csr(graph, gap_encode=True)
        assert a != c

    def test_save_load(self, graph, tmp_path):
        packed = BitPackedCSR.from_csr(graph, gap_encode=True)
        path = tmp_path / "g.npz"
        save_store(packed, path)
        loaded = load_store(path)
        assert loaded == packed

    def test_constructor_size_checks(self, graph):
        packed = BitPackedCSR.from_csr(graph)
        assert packed.rows == packed.num_nodes  # every row is non-empty
        with pytest.raises(ValidationError):
            BitPackedCSR(
                packed.num_nodes - 1,
                packed.num_edges,
                packed.offsets,
                packed.offset_width,
                packed.columns,
                packed.column_width,
            )


class TestEndToEndBuild:
    def test_build_bitpacked_equals_two_stage(self, sorted_edges, executor):
        src, dst, n = sorted_edges
        one_shot = build_bitpacked_csr(src, dst, n, executor)
        two_stage = BitPackedCSR.from_csr(build_csr_serial(src, dst, n))
        assert one_shot == two_stage

    def test_sort_option(self, rng):
        src = rng.integers(0, 20, 100)
        dst = rng.integers(0, 20, 100)
        packed = build_bitpacked_csr(src, dst, 20, sort=True)
        ss, dd = ensure_sorted(src, dst)
        assert packed == BitPackedCSR.from_csr(build_csr_serial(ss, dd, 20))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 25), st.integers(0, 80), st.integers(1, 16), st.integers(0, 2**31))
    def test_property_roundtrip(self, n, m, p, seed):
        rng = np.random.default_rng(seed)
        src, dst = ensure_sorted(rng.integers(0, n, m), rng.integers(0, n, m))
        packed = build_bitpacked_csr(src, dst, n, SimulatedMachine(p))
        back = packed.to_csr()
        ref = build_csr_serial(src, dst, n)
        assert np.array_equal(back.indptr, ref.indptr)
        assert np.array_equal(back.indices, ref.indices)


@st.composite
def windowed_graphs(draw):
    """A sorted multigraph whose sources fill a random sub-range
    ``[lo, hi)`` of ``[0, n)`` (both ends present): empty graphs, one
    row and the whole range included."""
    n = draw(st.integers(1, 30))
    lo = draw(st.integers(0, n))
    hi = draw(st.sampled_from([lo, min(lo + 1, n), n]) | st.integers(lo, n))
    src = draw(st.lists(st.integers(lo, hi - 1), max_size=50)) + [lo, hi - 1] if hi > lo else []
    dst = draw(st.lists(st.integers(0, n - 1), min_size=len(src), max_size=len(src)))
    src, dst = ensure_sorted(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))
    base = build_csr_serial(src, dst, n)
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.integers(0, 1000), min_size=len(src),
                                         max_size=len(src))), dtype=np.int64)
    return CSRGraph(base.indptr, base.indices, weights), (lo, hi) if len(src) else (0, 0)


class TestRowWindow:
    """``iA`` is packed from the first to the last non-empty row; every
    read outside that window is an empty row."""

    @settings(max_examples=60, deadline=None)
    @given(windowed_graphs(), st.booleans(), st.data())
    def test_parity_with_csr(self, drawn, gap, data):
        g, (lo, hi) = drawn
        n, m = g.num_nodes, g.num_edges
        packed = BitPackedCSR.from_csr(g, gap_encode=gap)
        assert (packed.first_row, packed.rows) == (lo, hi - lo)
        assert packed.offsets.nbits == (packed.rows + 1) * packed.offset_width
        if m:
            bits = (packed.rows + 1) * packed.offset_width + m * packed.column_width
            bits += m * packed.values_width if g.values is not None else 0
            assert packed.bits_per_edge() == bits / m
        for u in range(n):
            row = g.neighbors(u)
            assert packed.neighbors(u).tolist() == row.tolist()
            assert packed.degree(u) == g.degree(u)
            for v in {*row.tolist(), 0, n - 1}:
                assert packed.has_edge(u, v) == g.has_edge(u, v)
            if g.values is not None:
                assert packed.neighbor_weights(u).tolist() == g.neighbor_weights(u).tolist()
        assert [packed.offset(u) for u in range(n + 1)] == g.indptr.tolist()
        assert np.array_equal(packed.degrees(), g.degrees())
        keys = data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
        flat, offs = packed.neighbors_batch(np.array(keys, dtype=np.int64))
        want = [g.neighbors(u).tolist() for u in keys]
        assert flat.dtype == np.uint64
        assert np.diff(offs).tolist() == [len(r) for r in want]
        assert flat.tolist() == [v for r in want for v in r]
        assert packed.to_csr() == g
        buf = io.BytesIO()
        save_store(packed, buf)
        buf.seek(0)
        loaded = load_store(buf)
        assert (loaded.first_row, loaded.rows) == (packed.first_row, packed.rows)
        assert loaded == packed

    def test_first_row_key_only_when_nonzero(self):
        for lo, keys in ((0, False), (3, True)):
            g = build_csr_serial(np.array([lo, 5]), np.array([1, 2]), 8)
            payload = BitPackedCSR.from_csr(g).npz_payload()
            assert ("first_row" in payload) is keys

    def test_full_layout_file_loads_equal(self, tmp_path):
        """A file in the layout written before row windows (all n + 1
        offsets, no ``first_row`` key) loads equal to today's store."""
        g = build_csr_serial(np.array([2, 2, 4]), np.array([0, 5, 1]), 7)
        packed = BitPackedCSR.from_csr(g)
        assert (packed.first_row, packed.rows) == (2, 3)
        payload = packed.npz_payload()
        del payload["first_row"]
        full = pack_fixed(g.indptr, packed.offset_width)
        payload.update(offsets=full.buffer, offsets_nbits=full.nbits)
        np.savez(tmp_path / "old.npz", **payload)
        loaded = load_store(tmp_path / "old.npz")
        assert (loaded.first_row, loaded.rows) == (0, 7)
        assert loaded == packed
        assert loaded.neighbors_batch(np.arange(7))[0].tolist() == [0, 5, 1]

    @pytest.mark.parametrize("fault", ["negative", "overrun", "ragged"])
    def test_corrupt_window_refused(self, tmp_path, fault):
        g = build_csr_serial(np.array([2, 2, 4]), np.array([0, 5, 1]), 7)
        payload = BitPackedCSR.from_csr(g).npz_payload()
        if fault == "negative":
            payload["first_row"] = -1
        elif fault == "overrun":
            payload["first_row"] = 5  # 5 + 3 rows > 7 nodes
        else:
            payload["offsets_nbits"] -= 1  # not a whole number of fields
        path = tmp_path / "bad.npz"
        np.savez(path, **payload)
        with np.load(path) as data, pytest.raises(ValidationError, match="offset window"):
            BitPackedCSR.from_npz_payload(data)
        with pytest.raises(ReproError, match="bad.npz: offset window") as exc:
            load_store(path)
        assert "\n" not in str(exc.value)
