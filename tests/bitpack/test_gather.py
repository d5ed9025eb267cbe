"""The gather-decode kernel: many field runs in one vectorised pass.

``unpack_fields_gather`` must be bit-exact against the scalar path
(``unpack_slice`` per run) for every width, run geometry, and stream
offset — the batched query algorithms stand on this kernel.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack import fixed
from repro.bitpack.bitarray import BitArray
from repro.bitpack.fixed import (
    pack_fixed,
    read_field,
    read_fields,
    unpack_fields_gather,
    unpack_slice,
)
from repro.errors import CodecError, ValidationError


def _reference(bits, width, starts, counts):
    """Scalar per-run decode — the parity oracle."""
    runs = [unpack_slice(bits, width, int(s), int(c)) for s, c in zip(starts, counts)]
    offsets = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum([r.shape[0] for r in runs], out=offsets[1:])
    flat = np.concatenate(runs) if runs else np.zeros(0, dtype=np.uint64)
    return flat, offsets


class TestUnpackFieldsGather:
    @pytest.mark.parametrize("width", [1, 3, 7, 8, 9, 17, 31, 32, 33, 63, 64])
    def test_matches_scalar_runs(self, width, rng):
        nfields = 400
        hi = (1 << width) - 1
        values = rng.integers(0, hi, nfields, dtype=np.uint64, endpoint=True)
        bits = pack_fixed(values, width)
        starts = rng.integers(0, nfields, 50)
        counts = np.minimum(rng.integers(0, 40, 50), nfields - starts)
        got_flat, got_offs = unpack_fields_gather(bits, width, starts, counts)
        want_flat, want_offs = _reference(bits, width, starts, counts)
        assert got_flat.dtype == np.uint64
        assert np.array_equal(got_offs, want_offs)
        assert np.array_equal(got_flat, want_flat)

    def test_empty_request(self, rng):
        bits = pack_fixed(rng.integers(0, 100, 20), 7)
        flat, offs = unpack_fields_gather(bits, 7, [], [])
        assert flat.shape == (0,)
        assert np.array_equal(offs, [0])

    def test_all_zero_counts(self, rng):
        bits = pack_fixed(rng.integers(0, 100, 20), 7)
        flat, offs = unpack_fields_gather(bits, 7, [3, 5, 19], [0, 0, 0])
        assert flat.shape == (0,)
        assert np.array_equal(offs, [0, 0, 0, 0])

    def test_overlapping_and_duplicate_runs(self, rng):
        values = rng.integers(0, 1 << 11, 64, dtype=np.uint64)
        bits = pack_fixed(values, 11)
        starts = np.array([0, 0, 10, 5, 63])
        counts = np.array([64, 64, 20, 30, 1])
        flat, offs = unpack_fields_gather(bits, 11, starts, counts)
        want, _ = _reference(bits, 11, starts, counts)
        assert np.array_equal(flat, want)

    def test_out_of_range_rejected(self, rng):
        bits = pack_fixed(rng.integers(0, 100, 10), 7)
        with pytest.raises(CodecError):
            unpack_fields_gather(bits, 7, [5], [6])
        with pytest.raises(ValidationError):
            unpack_fields_gather(bits, 7, [-1], [1])
        with pytest.raises(ValidationError):
            unpack_fields_gather(bits, 7, [0], [-1])
        with pytest.raises(ValidationError):
            unpack_fields_gather(bits, 7, [0, 1], [1])
        with pytest.raises(ValidationError):
            unpack_fields_gather(bits, 0, [0], [1])

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        width=st.integers(1, 64),
        nfields=st.integers(1, 120),
    )
    def test_property_parity(self, data, width, nfields):
        values = data.draw(
            st.lists(
                st.integers(0, (1 << width) - 1), min_size=nfields, max_size=nfields
            )
        )
        bits = pack_fixed(np.asarray(values, dtype=np.uint64), width)
        nruns = data.draw(st.integers(0, 8))
        starts = np.asarray(
            data.draw(
                st.lists(st.integers(0, nfields), min_size=nruns, max_size=nruns)
            ),
            dtype=np.int64,
        )
        counts = np.asarray(
            [data.draw(st.integers(0, nfields - int(s))) for s in starts],
            dtype=np.int64,
        )
        got_flat, got_offs = unpack_fields_gather(bits, width, starts, counts)
        want_flat, want_offs = _reference(bits, width, starts, counts)
        assert np.array_equal(got_offs, want_offs)
        assert np.array_equal(got_flat, want_flat)


class TestSparseRegime:
    """Tiny outputs scattered across a long stream — the kernel must
    stay bit-exact without ever copying the stream."""

    @pytest.mark.parametrize("width", [1, 3, 7, 8, 13, 31, 33, 63, 64])
    def test_scattered_fields_parity(self, width, rng):
        nfields = 5_000
        hi = (1 << width) - 1
        values = rng.integers(0, hi, nfields, dtype=np.uint64, endpoint=True)
        bits = pack_fixed(values, width)
        # first and last field of the stream plus scattered singles
        starts = np.array([0, 1, 977, 2048, 3333, nfields - 2, nfields - 1])
        counts = np.array([1, 2, 1, 1, 2, 1, 1])
        got_flat, got_offs = unpack_fields_gather(bits, width, starts, counts)
        want_flat, want_offs = _reference(bits, width, starts, counts)
        assert np.array_equal(got_offs, want_offs)
        assert np.array_equal(got_flat, want_flat)

    @pytest.mark.parametrize("width", [5, 21, 64])
    def test_fields_deep_in_stream(self, width, rng):
        """Runs that start far from field 0 — a windowing/rebasing bug
        (reading from the stream head instead of the touched bytes)
        shows up immediately here."""
        nfields = 4_096
        hi = (1 << width) - 1
        values = rng.integers(0, hi, nfields, dtype=np.uint64, endpoint=True)
        bits = pack_fixed(values, width)
        starts = np.array([4_000, 4_050, 4_090])
        counts = np.array([3, 1, 6])
        got_flat, _ = unpack_fields_gather(bits, width, starts, counts)
        want_flat, _ = _reference(bits, width, starts, counts)
        assert np.array_equal(got_flat, want_flat)

    def test_last_field_at_exact_stream_end(self, rng):
        """The final field may end on the stream's last bit, with no
        byte of slack behind it for the 8-byte load to land on."""
        for width in (1, 7, 9, 63, 64):
            nfields = 1_025
            hi = (1 << width) - 1
            values = rng.integers(0, hi, nfields, dtype=np.uint64, endpoint=True)
            bits = pack_fixed(values, width)
            starts = np.array([0, nfields - 1])
            counts = np.array([1, 1])
            got_flat, _ = unpack_fields_gather(bits, width, starts, counts)
            assert got_flat[0] == values[0]
            assert got_flat[1] == values[nfields - 1]


class TestReadFields:
    def test_matches_read_field(self, rng):
        values = rng.integers(0, 1 << 13, 200, dtype=np.uint64)
        bits = pack_fixed(values, 13)
        idx = rng.integers(0, 200, 64)
        got = read_fields(bits, 13, idx)
        want = np.array([read_field(bits, 13, int(i)) for i in idx], dtype=np.uint64)
        assert np.array_equal(got, want)

    def test_empty(self, rng):
        bits = pack_fixed(rng.integers(0, 8, 4), 3)
        assert read_fields(bits, 3, []).shape == (0,)


def _oracle(bits, width, field_indices):
    """Pure-Python decode, one ``read_uint`` per field."""
    return np.array(
        [bits.read_uint(int(i) * width, width) for i in field_indices], dtype=np.uint64
    )


def _random_stream(rng, width, nfields):
    values = rng.integers(0, (1 << width) - 1, nfields, dtype=np.uint64, endpoint=True)
    return values, pack_fixed(values, width)


class TestWordLoadKernel:
    """The one-unaligned-load-per-field kernel at its edges: every
    width, the last bytes of the buffer, tiny and foreign buffers."""

    @pytest.mark.parametrize("width", range(1, 65))
    def test_every_width_against_read_uint(self, width, rng):
        nfields = 203  # not a multiple of 8
        values, bits = _random_stream(rng, width, nfields)
        starts = np.array([0, 5, 77, 77, 60, nfields - 9, nfields - 1, nfields])
        counts = np.array([3, 11, 30, 30, 40, 9, 1, 0])
        flat, offs = unpack_fields_gather(bits, width, starts, counts)
        fields = np.concatenate([np.arange(s, s + c) for s, c in zip(starts, counts)])
        assert flat.dtype == np.uint64 and offs.dtype == np.int64
        assert np.array_equal(offs, np.concatenate(([0], np.cumsum(counts))))
        assert np.array_equal(flat, _oracle(bits, width, fields))
        assert np.array_equal(flat, values[fields])
        idx = rng.integers(0, nfields, 50)
        assert np.array_equal(read_fields(bits, width, idx), _oracle(bits, width, idx))

    @pytest.mark.parametrize("width", [1, 5, 8, 9, 17, 31, 40, 56, 57, 58, 64])
    def test_last_field_ends_on_last_byte(self, width, rng):
        """Field count a multiple of 8, so the stream fills its buffer
        exactly and the last load has to be pulled back into it."""
        for nfields in (8, 16, 64, 1024):
            values, bits = _random_stream(rng, width, nfields)
            assert bits.nbits == 8 * bits.buffer.shape[0]
            tail = np.arange(max(0, nfields - 70), nfields)
            assert np.array_equal(read_fields(bits, width, tail), values[tail])
            flat, _ = unpack_fields_gather(bits, width, [nfields - 1, 0], [1, nfields])
            assert np.array_equal(flat, np.concatenate((values[-1:], values)))

    @pytest.mark.parametrize("nbytes", range(1, 10))
    def test_tiny_buffers(self, nbytes, rng):
        """Buffers of 1-9 bytes: under 8 there is no word to load."""
        raw = rng.integers(0, 256, nbytes, dtype=np.uint8)
        for width in (1, 3, 7, 8, 9, 13, 31, 57, 64):
            nfields = (8 * nbytes) // width
            if nfields == 0:
                continue
            bits = BitArray(raw, nfields * width)
            idx = np.arange(nfields)[::-1]
            assert np.array_equal(read_fields(bits, width, idx), _oracle(bits, width, idx))
            flat, _ = unpack_fields_gather(bits, width, [0, nfields - 1], [nfields, 1])
            assert np.array_equal(
                flat, _oracle(bits, width, list(range(nfields)) + [nfields - 1])
            )

    def test_overlapping_and_duplicate_runs_scattered(self, rng):
        values, bits = _random_stream(rng, 19, 3_000)
        starts = np.array([2_990, 0, 2_990, 1_500, 1_495, 0])
        counts = np.array([10, 8, 10, 20, 20, 3_000])
        flat, offs = unpack_fields_gather(bits, 19, starts, counts)
        for i, (s, c) in enumerate(zip(starts, counts)):
            assert np.array_equal(flat[offs[i] : offs[i + 1]], values[s : s + c])

    def test_readonly_memmap_is_read_in_place(self, tmp_path, rng):
        values, bits = _random_stream(rng, 21, 4_096)
        path = tmp_path / "columns.seg"
        bits.buffer.tofile(path)
        mm = np.memmap(path, dtype=np.uint8, mode="r")
        mapped = BitArray(mm, bits.nbits)
        assert not mapped.buffer.flags.writeable
        idx = np.concatenate((rng.integers(0, 4_096, 200), [0, 4_095]))
        assert np.array_equal(read_fields(mapped, 21, idx), values[idx])
        flat, _ = unpack_fields_gather(mapped, 21, [4_000, 17], [96, 500])
        assert np.array_equal(flat, np.concatenate((values[4_000:], values[17:517])))
        # a slice of the map (a codec segment's payload behind its header)
        part = BitArray(mm[21:], bits.nbits - 8 * 21)
        assert np.array_equal(read_fields(part, 21, idx[idx < 4_088]), values[idx[idx < 4_088] + 8])

    def test_non_contiguous_buffer(self, rng):
        values, bits = _random_stream(rng, 13, 500)
        spread = np.zeros(2 * bits.buffer.shape[0], dtype=np.uint8)
        spread[::2] = bits.buffer
        strided = BitArray(spread[::2], bits.nbits)
        assert not strided.buffer.flags.c_contiguous
        idx = rng.integers(0, 500, 100)
        assert np.array_equal(read_fields(strided, 13, idx), values[idx])
        flat, _ = unpack_fields_gather(strided, 13, [490, 3], [10, 100])
        assert np.array_equal(flat, np.concatenate((values[490:], values[3:103])))

    @pytest.mark.parametrize("width", [1, 7, 8, 13, 33, 57, 64])
    def test_portable_fallback_matches(self, width, rng, portable_only):
        values, bits = _random_stream(rng, width, 700)
        starts = np.array([650, 0, 300, 300, 699])
        counts = np.array([50, 9, 33, 33, 1])
        flat, offs = unpack_fields_gather(bits, width, starts, counts)
        for i, (s, c) in enumerate(zip(starts, counts)):
            assert np.array_equal(flat[offs[i] : offs[i + 1]], values[s : s + c])
        idx = rng.integers(0, 700, 64)
        assert np.array_equal(read_fields(bits, width, idx), values[idx])

    def test_read_fields_rejects_bad_indices(self, rng):
        _, bits = _random_stream(rng, 7, 10)
        with pytest.raises(CodecError):
            read_fields(bits, 7, [3, 10])
        with pytest.raises(ValidationError):
            read_fields(bits, 7, [-1])
        with pytest.raises(ValidationError):
            read_fields(bits, 7, [[0, 1]])
        with pytest.raises(ValidationError):
            read_fields(bits, 65, [0])


def _fields_of(starts, counts):
    return np.concatenate(
        [np.arange(s, s + c, dtype=np.int64) for s, c in zip(starts, counts)] + [np.zeros(0, np.int64)]
    )


def _check_runs(bits, width, starts, counts):
    """The gather against one ``read_uint`` per requested field."""
    flat, offs = unpack_fields_gather(bits, width, starts, counts)
    assert flat.dtype == np.uint64 and offs.dtype == np.int64
    assert np.array_equal(offs, np.concatenate(([0], np.cumsum(counts, dtype=np.int64))))
    assert np.array_equal(flat, _oracle(bits, width, _fields_of(starts, counts)))
    return flat


@st.composite
def _straddling_requests(draw):
    """A stream, a run-length cut-over and runs whose lengths sit on
    both sides of it (and on it), anywhere in the stream — the last
    field included."""
    width = draw(st.integers(1, 57))
    cut = draw(st.integers(1, 40))
    nfields = draw(st.integers(cut + 2, 160))
    values = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=nfields, max_size=nfields))
    lengths = st.one_of(st.integers(max(0, cut - 2), cut + 2), st.integers(0, nfields))
    starts, counts = [], []
    for _ in range(draw(st.integers(1, 8))):
        count = min(draw(lengths), nfields)
        if draw(st.booleans()):  # the run ends on the stream's last field
            starts.append(nfields - count)
        else:
            starts.append(draw(st.integers(0, nfields - count)))
        counts.append(count)
    return width, cut, np.asarray(values, dtype=np.uint64), starts, counts


class TestLongRunRegime:
    """``unpack_fields_gather`` sends runs of at least ``_RUN_MIN_FIELDS``
    fields through the strided kernel, straight into their slice of the
    output, and gathers the rest; both must be bit-exact against
    ``read_uint`` wherever the cut falls."""

    @settings(max_examples=150, deadline=None)
    @given(request=_straddling_requests())
    def test_runs_straddling_the_cut_over(self, request):
        width, cut, values, starts, counts = request
        bits = pack_fixed(values, width)
        with mock.patch.object(fixed, "_RUN_MIN_FIELDS", cut):
            flat = _check_runs(bits, width, starts, counts)
        assert np.array_equal(flat, values[_fields_of(starts, counts)])

    @pytest.mark.parametrize("width", range(1, 58))
    def test_long_run_ends_on_last_byte(self, width, rng, run_regime):
        """Field count a multiple of 8: the stream fills its buffer, so
        the long run's last fields take the strided kernel's clamped
        tail (the strided regime) or the gather's clamp."""
        for nfields in (64, 1_000, 1_024):
            values, bits = _random_stream(rng, width, nfields)
            if nfields % 8 == 0:
                assert bits.nbits == 8 * bits.buffer.shape[0]
            flat = _check_runs(bits, width, [1, 0, nfields - 9], [nfields - 1, nfields, 9])
            assert np.array_equal(flat[-9:], values[-9:])

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 19, 33, 57])
    def test_overlapping_repeated_and_empty_runs(self, width, rng, run_regime):
        values, bits = _random_stream(rng, width, 3_000)
        starts = [2_000, 0, 2_000, 3_000, 1_500, 0, 17, 2_999, 40]
        counts = [1_000, 3_000, 1_000, 0, 1_200, 0, 2_500, 1, 0]
        flat = _check_runs(bits, width, starts, counts)
        assert np.array_equal(flat[:1_000], flat[4_000:5_000])

    def test_clamp_is_taken_only_where_a_load_overruns(self, rng):
        """A request whose highest field sits in the buffer's last 7
        bytes needs the clamp; one that stays clear of them does not.
        Both give the oracle's values, and clamping a request that does
        not need it changes nothing."""
        width, nfields = 23, 2_048
        values, bits = _random_stream(rng, width, nfields)
        words = bits.buffer.shape[0] - 7
        for top_field in (nfields - 1, nfields - 3, 100):
            idx = np.array([5, top_field // 2, top_field])
            top = top_field * width
            assert (top >> 3 >= words) == (top_field > nfields - 3)
            assert np.array_equal(read_fields(bits, width, idx), values[idx])
            _check_runs(bits, width, [0, top_field], [4, 1])
            forced = fixed._load_fields(bits.buffer, idx * width, width, 8 * words)
            assert np.array_equal(forced, values[idx])

    def test_readonly_memmap(self, tmp_path, rng, run_regime):
        values, bits = _random_stream(rng, 21, 8_192)
        path = tmp_path / "columns.seg"
        bits.buffer.tofile(path)
        mm = np.memmap(path, dtype=np.uint8, mode="r")
        mapped = BitArray(mm, bits.nbits)
        assert not mapped.buffer.flags.writeable
        flat = _check_runs(mapped, 21, [4_000, 17, 8_000], [4_192, 3_100, 5])
        assert np.array_equal(flat[:4_192], values[4_000:])
        part = BitArray(mm[21:], bits.nbits - 8 * 21)  # a payload behind a header
        flat, _ = unpack_fields_gather(part, 21, [0, 5_000], [4_000, 3_184])
        assert np.array_equal(flat, np.concatenate((values[8:4_008], values[5_008:])))

    def test_non_contiguous_buffer(self, rng, run_regime):
        values, bits = _random_stream(rng, 13, 5_000)
        spread = np.zeros(2 * bits.buffer.shape[0], dtype=np.uint8)
        spread[::2] = bits.buffer
        strided = BitArray(spread[::2], bits.nbits)
        assert not strided.buffer.flags.c_contiguous
        flat = _check_runs(strided, 13, [4_000, 3, 900], [1_000, 3_500, 4])
        assert np.array_equal(flat[:1_000], values[4_000:])

    @pytest.mark.parametrize("width", [58, 61, 64])
    def test_wide_fields(self, width, rng, run_regime):
        values, bits = _random_stream(rng, width, 4_000)
        flat = _check_runs(bits, width, [0, 3_990, 100], [3_500, 10, 3_000])
        assert np.array_equal(flat[:3_500], values[:3_500])

    @pytest.mark.parametrize("width", [1, 7, 33, 57])
    def test_portable_only(self, width, rng, run_regime, portable_only):
        values, bits = _random_stream(rng, width, 4_000)
        flat = _check_runs(bits, width, [500, 3_999, 0], [3_500, 1, 3_000])
        assert np.array_equal(flat[:3_500], values[500:])

    @pytest.mark.parametrize("width", [1, 7, 13, 33, 57, 64])
    @pytest.mark.parametrize("portable", [False, True], ids=["words", "portable"])
    def test_runs_off_the_field_grid(self, width, rng, run_regime, portable, monkeypatch):
        """Runs that start at any bit (segments of one width at different
        offsets of one buffer, as in an arena) equal scalar reads."""
        if portable:
            monkeypatch.setattr(fixed, "_LITTLE_ENDIAN", False)
        values, bits = _random_stream(rng, width, 4_000)
        starts = np.array([3, 100 * width + 5, 0, 3_000 * width + 1], dtype=np.int64)
        counts = np.array([2_500, 10, 3_000, 900], dtype=np.int64)
        flat, offsets = fixed._gather_runs(bits, width, starts, counts)
        want = [bits.read_uint(int(b) + j * width, width)
                for b, c in zip(starts, counts) for j in range(c)]
        assert flat.tolist() == want
        assert offsets.tolist() == [0, *np.cumsum(counts).tolist()]
