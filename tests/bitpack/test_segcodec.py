"""Per-segment codec layer: selection rule, round-trips, error paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack.delta import row_gaps, rows_from_gaps
from repro.bitpack.fixed import pack_fixed
from repro.bitpack.segcodec import (
    DEFAULT_CANDIDATES,
    SEGMENT_CODECS,
    SegmentArena,
    encode_row_segment,
    resolve_codecs,
    row_windows,
    segment_codec,
)
from repro.bitpack.varint import varint_encode, varint_nbytes
from repro.bitpack.zeta import (
    elias_delta_nbits,
    elias_gamma_nbits,
    zeta_encode,
    zeta_value_nbits,
)
from repro.errors import CodecError, ValidationError


def _segment(rng, *, num_rows, max_deg, max_id, empty_every=0):
    """A sorted row segment: (values, local_indptr)."""
    degs = rng.integers(0, max_deg + 1, num_rows)
    if empty_every:
        degs[::empty_every] = 0
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(degs, out=indptr[1:])
    vals = rng.integers(0, max_id + 1, int(indptr[-1])).astype(np.uint64)
    for r in range(num_rows):
        vals[indptr[r]:indptr[r + 1]].sort()
    return vals, indptr


def decode_rows(enc, rows, degrees, field_starts):
    """Rows of one encoded segment through the arena — the compact
    store's decode entry (empty rows own no bytes, as there)."""
    offsets = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    live = np.flatnonzero(degrees)
    if live.size == 0:
        return np.zeros(0, dtype=np.uint64), offsets
    gaps = SegmentArena([enc]).decode_gaps(
        np.zeros(live.size, dtype=np.int64), rows[live], degrees[live],
        np.asarray(field_starts, dtype=np.int64)[live],
    )
    return rows_from_gaps(offsets, gaps), offsets


def _roundtrip(enc, vals, indptr):
    num_rows = indptr.shape[0] - 1
    rows = np.arange(num_rows, dtype=np.int64)
    degrees = np.diff(indptr)
    flat, offsets = decode_rows(enc, rows, degrees, indptr[:-1])
    assert np.array_equal(offsets, indptr)
    assert np.array_equal(flat, vals)


class TestSelection:
    def test_auto_is_default(self):
        assert resolve_codecs(None) == DEFAULT_CANDIDATES
        assert resolve_codecs("auto") == DEFAULT_CANDIDATES
        assert resolve_codecs("varint") == ("varint",)
        assert resolve_codecs("fixed,zeta2") == ("fixed", "zeta2")
        assert resolve_codecs(["zeta3"]) == ("zeta3",)

    def test_unknown_codec_one_line_error(self):
        with pytest.raises(CodecError, match=r"unknown codec 'snappy' \(known: "):
            resolve_codecs("snappy")
        with pytest.raises(ValidationError):
            resolve_codecs([])

    def test_winner_is_smallest_total(self, rng):
        vals, indptr = _segment(rng, num_rows=120, max_deg=30, max_id=100_000)
        gaps = row_gaps(indptr, vals)
        best = encode_row_segment(gaps, indptr, SEGMENT_CODECS)
        sizes = {
            name: encode_row_segment(gaps, indptr, [name]).total_bits
            for name in SEGMENT_CODECS
        }
        assert best.total_bits == min(sizes.values())

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(0, 12),
        st.sampled_from([3, 300, 10**5, 2**40]),
        st.permutations(SEGMENT_CODECS),
    )
    def test_sized_winner_equals_encode_all(self, seed, num_rows, max_deg, max_id, order):
        """Sizing without encoding picks what encoding everything picked:
        same codec (ties to the earlier candidate), payload and starts."""
        from repro.bitpack.segcodec import _total_bits

        vals, indptr = _segment(
            np.random.default_rng(seed), num_rows=num_rows, max_deg=max_deg,
            max_id=max_id, empty_every=3,
        )
        gaps = row_gaps(indptr, vals)
        encoded = [encode_row_segment(gaps, indptr, [name]) for name in order]
        for name, enc in zip(order, encoded):
            assert _total_bits(segment_codec(name), gaps, num_rows) == enc.total_bits
        want = min(encoded, key=lambda enc: enc.total_bits)  # min keeps the first
        got = encode_row_segment(gaps, indptr, order)
        assert (got.codec, got.enc_width, got.starts_width) == (
            want.codec, want.enc_width, want.starts_width)
        assert got.payload.nbits == want.payload.nbits
        assert np.array_equal(got.payload.buffer, want.payload.buffer)
        assert (got.starts is None) == (want.starts is None)
        if want.starts is not None:
            assert np.array_equal(got.starts.buffer, want.starts.buffer)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(0, 12),
        st.sampled_from([3, 300, 10**5, 2**40]),
        st.sampled_from([None, ("varint", "fixed"), ("fixed",), ("varint",),
                         ("zeta2", "varint"), SEGMENT_CODECS]),
    )
    def test_coded_input_encodes_as_gaps(self, seed, num_rows, max_deg, max_id, codecs):
        """A segment handed over as its LEB128 stream and row byte offsets
        (what a compaction splices) is the record its gaps give, byte for
        byte, whichever codec wins."""
        vals, indptr = _segment(
            np.random.default_rng(seed), num_rows=num_rows, max_deg=max_deg,
            max_id=max_id, empty_every=3,
        )
        gaps = row_gaps(indptr, vals)
        stream = varint_encode(gaps)
        row_bytes = np.concatenate(([0], np.cumsum(varint_nbytes(gaps))))[indptr]
        got = encode_row_segment(stream, indptr, codecs, row_bytes=row_bytes)
        want = encode_row_segment(gaps, indptr, codecs)
        assert got == want  # fields, and the bits of payload and starts
        assert np.array_equal(got.payload.buffer, want.payload.buffer)
        if want.starts is not None:
            assert np.array_equal(got.starts.buffer, want.starts.buffer)

    def test_coded_row_offsets_must_cover_the_stream(self):
        stream = varint_encode(np.array([1, 2, 300], dtype=np.uint64))
        with pytest.raises(ValidationError, match="row_bytes"):
            encode_row_segment(stream, [0, 1, 3], "varint", row_bytes=[0, 1, 3])

    def test_starts_table_counts_against_variable_codecs(self):
        # one dense row of tiny gaps: fixed needs ~2 bits/field while
        # varint pays 8 bits/field plus its table — fixed must win
        vals = np.sort(np.arange(0, 600, 2, dtype=np.uint64))
        indptr = np.array([0, vals.shape[0]], dtype=np.int64)
        enc = encode_row_segment(row_gaps(indptr, vals), indptr)
        assert enc.codec == "fixed"


class TestRoundtrip:
    @pytest.mark.parametrize("codec", SEGMENT_CODECS)
    def test_zipf_rows(self, rng, codec):
        vals, indptr = _segment(rng, num_rows=80, max_deg=50, max_id=1 << 20)
        enc = encode_row_segment(row_gaps(indptr, vals), indptr, [codec])
        assert enc.codec == codec
        _roundtrip(enc, vals, indptr)

    @pytest.mark.parametrize("codec", SEGMENT_CODECS)
    def test_empty_and_single_node_rows(self, rng, codec):
        vals, indptr = _segment(
            rng, num_rows=60, max_deg=3, max_id=9, empty_every=4
        )
        enc = encode_row_segment(row_gaps(indptr, vals), indptr, [codec])
        _roundtrip(enc, vals, indptr)

    @pytest.mark.parametrize("codec", SEGMENT_CODECS)
    def test_all_rows_empty(self, codec):
        indptr = np.zeros(12, dtype=np.int64)
        vals = np.zeros(0, dtype=np.uint64)
        enc = encode_row_segment(row_gaps(indptr, vals), indptr, [codec])
        _roundtrip(enc, vals, indptr)

    @pytest.mark.parametrize("codec", SEGMENT_CODECS)
    def test_adversarial_gap_mixture(self, rng, codec):
        # rows alternating huge first ids with runs of duplicates
        # (zero gaps) and near-2^40 jumps
        rows = [
            np.array([], dtype=np.uint64),
            np.array([0], dtype=np.uint64),
            np.array([2**40], dtype=np.uint64),
            np.array([7, 7, 7, 7, 7], dtype=np.uint64),
            np.sort(rng.integers(0, 2**40, 33).astype(np.uint64)),
            np.array([2**40 - 1, 2**40], dtype=np.uint64),
        ]
        vals = np.concatenate(rows).astype(np.uint64)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([r.shape[0] for r in rows], out=indptr[1:])
        enc = encode_row_segment(row_gaps(indptr, vals), indptr, [codec])
        _roundtrip(enc, vals, indptr)

    @pytest.mark.parametrize("codec", SEGMENT_CODECS)
    def test_subset_of_rows_any_order(self, rng, codec):
        vals, indptr = _segment(rng, num_rows=50, max_deg=12, max_id=5000)
        enc = encode_row_segment(row_gaps(indptr, vals), indptr, [codec])
        rows = rng.permutation(50)[:17].astype(np.int64)
        degrees = np.diff(indptr)[rows]
        flat, offsets = decode_rows(enc, rows, degrees, indptr[:-1][rows])
        for i, r in enumerate(rows):
            assert np.array_equal(
                flat[offsets[i]:offsets[i + 1]], vals[indptr[r]:indptr[r + 1]]
            )
        if enc.starts is not None:
            # a caller that read the starts table itself (the disk
            # store meters those windows) hands them to the table
            # entry: same decode
            gaps = segment_codec(enc.codec).decode(
                enc.payload, *row_windows(enc.starts, enc.starts_width, rows),
                degrees, enc.enc_width,
            )
            assert np.array_equal(rows_from_gaps(offsets, gaps), flat)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(SEGMENT_CODECS),
        st.lists(
            st.lists(st.integers(0, 2**32), max_size=12), max_size=14
        ),
    )
    def test_property(self, codec, row_lists):
        rows = [np.sort(np.asarray(r, dtype=np.uint64)) for r in row_lists]
        vals = (
            np.concatenate(rows).astype(np.uint64)
            if rows else np.zeros(0, dtype=np.uint64)
        )
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        if rows:
            np.cumsum([r.shape[0] for r in rows], out=indptr[1:])
        enc = encode_row_segment(row_gaps(indptr, vals), indptr, [codec])
        _roundtrip(enc, vals, indptr)


class TestValidation:
    def test_indptr_must_cover_gaps(self):
        with pytest.raises(ValidationError):
            encode_row_segment(
                np.array([1, 2, 3], dtype=np.uint64),
                np.array([0, 2], dtype=np.int64),
            )

    def test_unknown_codec_in_decode(self):
        with pytest.raises(CodecError, match="unknown codec"):
            segment_codec("snappy")

    @pytest.mark.parametrize("encode", [
        pack_fixed, varint_encode, varint_nbytes,
        lambda values: zeta_encode(values, 2),
        lambda values: zeta_value_nbits(values, 3),
        elias_gamma_nbits, elias_delta_nbits,
    ], ids=["pack_fixed", "varint_encode", "varint_nbytes", "zeta_encode",
            "zeta_value_nbits", "elias_gamma_nbits", "elias_delta_nbits"])
    @pytest.mark.parametrize("values", [
        np.array([3, -1]),
        np.array([1.0, 2.0]),
        np.zeros((2, 2), dtype=np.uint64),
        np.array([1, 2], dtype=object),
    ], ids=["negative", "float", "2-D", "object-ints"])
    def test_every_codec_input_check_rejects(self, encode, values):
        """The codec functions share one input check (``as_uint_array``)."""
        with pytest.raises(ValidationError):
            encode(values)
