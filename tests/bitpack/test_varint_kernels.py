"""The kernels behind ``varint_encode`` / ``varint_decode``.

Decoding takes one unaligned 64-bit load per value where it can (values
of up to 8 bytes, little-endian host, contiguous buffer of 8+ bytes) and
one masked pass per byte position otherwise; encoding is one unmasked
pass per byte position.  All of them must agree with the byte-at-a-time
definition of LEB128 below: the stream is an on-disk format.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack import varint
from repro.bitpack.varint import varint_decode, varint_encode
from repro.errors import CodecError, ValidationError

# 0, every 2**(7k) +- 1 and the edges of the 8-byte word and of uint64
EDGES = sorted(
    {0, 2**56 - 1, 2**56, 2**64 - 1}
    | {2 ** (7 * k) + d for k in range(1, 10) for d in (-1, 0, 1)}
)


def _leb128(values) -> np.ndarray:
    """Byte-at-a-time reference encoder."""
    out = []
    for v in map(int, values):
        while v >= 0x80:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
    return np.asarray(out, dtype=np.uint8)


def _masked_encode(values) -> np.ndarray:
    """The encoder this module replaced (one boolean-indexed pass per
    byte position), kept as the byte-for-byte oracle."""
    arr = np.asarray(values, dtype=np.uint64)
    nbytes, longest = varint._nbytes_and_longest(arr)
    offsets = np.zeros(arr.shape[0], dtype=np.int64)
    np.cumsum(nbytes[:-1], out=offsets[1:])
    out = np.zeros(int(nbytes.sum()), dtype=np.uint8)
    for k in range(longest):
        mask = nbytes > k
        payload = (arr[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nbytes[mask] > k + 1).astype(np.uint8) << 7
        out[offsets[mask] + k] = payload.astype(np.uint8) | cont
    return out


@pytest.fixture(params=["word", "positional"])
def path(request, monkeypatch):
    """Run a test once per decode path (a big-endian host has only the
    positional one)."""
    if request.param == "positional":
        monkeypatch.setattr(varint, "_LITTLE_ENDIAN", False)
    return request.param


def _spy_on_word_kernel(monkeypatch) -> list:
    """Record what each ``_decode_words`` call returned."""
    calls, kernel = [], varint._decode_words

    def spy(buf, starts):
        out = kernel(buf, starts)
        calls.append(out)
        return out

    monkeypatch.setattr(varint, "_decode_words", spy)
    return calls


class TestEncodedBytes:
    def test_edges_match_the_definition(self):
        values = np.asarray(EDGES, dtype=np.uint64)
        assert np.array_equal(varint_encode(values), _leb128(values))
        for v in EDGES:
            assert np.array_equal(varint_encode([v]), _leb128([v]))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 300), st.integers(0, 2**64 - 1),
                              st.sampled_from(EDGES)), min_size=1, max_size=60))
    def test_same_bytes_as_the_masked_encoder(self, values):
        arr = np.asarray(values, dtype=np.uint64)
        want = _masked_encode(arr)
        assert np.array_equal(varint_encode(arr), want)
        assert np.array_equal(want, _leb128(arr))

    def test_skewed_bulk_same_bytes(self, rng):
        """Gap-like data: mostly one byte, a few long values, so nearly
        every pass scribbles on its neighbours."""
        values = rng.geometric(0.05, 40_000).astype(np.uint64)
        values[rng.random(40_000) < 0.02] = 2**40 + 5
        values[-1] = 2**63  # the last value is the longest: no slack left
        assert np.array_equal(varint_encode(values), _masked_encode(values))

    def test_output_owns_exactly_its_bytes(self):
        stream = varint_encode(np.asarray([1, 2**20, 3], dtype=np.uint64))
        assert stream.shape == (5,) and stream.dtype == np.uint8
        assert stream.flags.c_contiguous


class TestDecodeParity:
    def test_edges(self, path):
        values = np.asarray(EDGES, dtype=np.uint64)
        got = varint_decode(_leb128(values), len(EDGES))
        assert got.dtype == np.uint64 and np.array_equal(got, values)

    def test_word_kernel_takes_runs_up_to_8_bytes(self, monkeypatch):
        calls = _spy_on_word_kernel(monkeypatch)
        short = np.asarray([v for v in EDGES if v < 2**56], dtype=np.uint64)
        assert np.array_equal(varint_decode(varint_encode(short)), short)
        assert len(calls) == 1 and calls[0] is not None
        # one 9-byte run anywhere sends the stream to the positional passes
        mixed = np.append(short, np.uint64(2**56))
        assert np.array_equal(varint_decode(varint_encode(mixed)), mixed)
        assert len(calls) == 2 and calls[1] is None

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 200), st.integers(0, 2**56 - 1),
                              st.integers(0, 2**64 - 1)), max_size=80))
    def test_paths_agree(self, values):
        arr = np.asarray(values, dtype=np.uint64)
        stream = _leb128(arr)
        fast = varint_decode(stream, arr.shape[0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(varint, "_LITTLE_ENDIAN", False)
            slow = varint_decode(stream, arr.shape[0])
        assert np.array_equal(fast, arr) and np.array_equal(slow, arr)

    def test_non_canonical_zero_padding_decodes_the_same(self, path):
        """0x80 0x00 is a legal two-byte zero; 0xFF 0x80 0x00 is 127."""
        stream = np.asarray([0x80, 0x00, 0xFF, 0x80, 0x00, 5, 0x81, 0x80, 0x80, 0x00],
                            dtype=np.uint8)
        assert varint_decode(stream).tolist() == [0, 127, 5, 1]

    @pytest.mark.parametrize("nbytes", range(1, 8))
    def test_streams_shorter_than_a_word(self, nbytes, path):
        values = np.asarray([2 ** (7 * (nbytes - 1))], dtype=np.uint64)
        stream = varint_encode(values)
        assert stream.shape[0] == nbytes
        assert np.array_equal(varint_decode(stream, 1), values)
        ones = np.arange(nbytes, dtype=np.uint64)
        assert np.array_equal(varint_decode(varint_encode(ones)), ones)

    def test_values_in_the_last_seven_bytes(self, rng):
        """Their loads are moved back to the buffer's last word."""
        for tail in ([1, 2, 3, 4, 5, 6, 7], [2**49 - 1], [300, 2**21, 9], [2**55]):
            values = np.asarray([2**30, 77, *tail], dtype=np.uint64)
            stream = varint_encode(values)
            assert np.array_equal(varint_decode(stream, values.shape[0]), values)

    def test_buffers_the_store_hands_in(self, tmp_path, rng, monkeypatch):
        values = rng.integers(0, 2**40, 5_000).astype(np.uint64)
        stream = varint_encode(values)
        calls = _spy_on_word_kernel(monkeypatch)
        frozen = stream.copy()
        frozen.setflags(write=False)
        assert np.array_equal(varint_decode(frozen), values)
        path = tmp_path / "stream.bin"
        stream.tofile(path)
        mapped = np.memmap(path, dtype=np.uint8, mode="r")
        assert np.array_equal(varint_decode(mapped, 5_000), values)
        assert len(calls) == 2  # both decoded in place by the word kernel
        strided = np.repeat(stream, 2)[::2]
        assert not strided.flags.c_contiguous
        assert np.array_equal(varint_decode(strided), values)
        assert len(calls) == 2  # a strided buffer has no word view
        assert np.array_equal(varint_decode(stream.tolist()), values)

    def test_decode_leaves_the_stream_untouched(self, rng):
        values = rng.integers(0, 2**30, 1_000).astype(np.uint64)
        stream = varint_encode(values)
        before = stream.copy()
        varint_decode(stream)
        varint_decode(stream, windows=(np.asarray([0]), np.asarray([stream.shape[0]])))
        assert np.array_equal(stream, before)


class TestCodecErrors:
    def test_missing_terminator(self, path):
        for stream in ([0x80], [5, 0x81], [0x80] * 9, [1, 2, 3, 0xFF]):
            with pytest.raises(CodecError, match="truncated"):
                varint_decode(np.asarray(stream, dtype=np.uint8))

    def test_run_longer_than_ten_bytes(self, path):
        for head in ([], [7] * 20):
            stream = np.asarray(head + [0x80] * 10 + [0x01] + head, dtype=np.uint8)
            with pytest.raises(CodecError, match="10 bytes"):
                varint_decode(stream)
        ok = np.asarray([0xFF] * 9 + [0x01], dtype=np.uint8)
        assert varint_decode(ok).tolist() == [2**64 - 1]

    def test_count_mismatch(self, path):
        stream = varint_encode(np.arange(300, dtype=np.uint64))
        for count in (0, 299, 301):
            with pytest.raises(CodecError, match=f"expected {count}"):
                varint_decode(stream, count)
        with pytest.raises(CodecError, match="expected 1"):
            varint_decode(np.zeros(0, dtype=np.uint8), 1)
        assert varint_decode(np.zeros(0, dtype=np.uint8), 0).shape == (0,)


def _rows(rng, num_rows=40, max_len=9):
    """Rows of values, their stream, and each row's byte window."""
    rows = [
        rng.integers(0, 2 ** rng.integers(1, 50), rng.integers(0, max_len)).astype(np.uint64)
        for _ in range(num_rows)
    ]
    ends = np.cumsum([varint_encode(r).shape[0] for r in rows])
    stream = varint_encode(np.concatenate(rows))
    return rows, stream, ends - np.diff(ends, prepend=0), ends


class TestWindows:
    def test_abutting_windows_are_sliced(self, rng, path, monkeypatch):
        rows, stream, b0, b1 = _rows(rng)
        monkeypatch.setattr(np, "repeat", None)  # any gather would need it
        for lo, hi in ((0, len(rows)), (7, 8), (3, 30)):
            want = np.concatenate(rows[lo:hi])
            got = varint_decode(stream, want.shape[0], windows=(b0[lo:hi], b1[lo:hi]))
            assert np.array_equal(got, want)

    def test_scattered_repeated_and_overlapping(self, rng, path):
        rows, stream, b0, b1 = _rows(rng)
        pick = np.asarray([31, 2, 2, 17, 3, 39, 0, 17, 16])
        want = np.concatenate([rows[i] for i in pick])
        got = varint_decode(stream, want.shape[0], windows=(b0[pick], b1[pick]))
        assert np.array_equal(got, want)
        # windows of several rows each, overlapping one another
        lo, hi = np.asarray([4, 2, 10]), np.asarray([9, 6, 11])
        want = np.concatenate([np.concatenate(rows[a:b]) for a, b in zip(lo, hi)])
        got = varint_decode(stream, windows=(b0[lo], b1[hi - 1]))
        assert np.array_equal(got, want)

    def test_empty_windows(self, rng, path):
        rows, stream, b0, b1 = _rows(rng)
        none = np.zeros(0, dtype=np.int64)
        assert varint_decode(stream, 0, windows=(none, none)).shape == (0,)
        empty = np.asarray([5, 0, stream.shape[0]])
        assert varint_decode(stream, 0, windows=(empty, empty)).shape == (0,)
        # empty windows among real ones, at offsets that are no row start
        mid = int(b0[20]) + 1
        got = varint_decode(stream, windows=(
            np.asarray([mid, b0[3], mid, b0[8]]), np.asarray([mid, b1[3], mid, b1[8]])
        ))
        assert np.array_equal(got, np.concatenate([rows[3], rows[8]]))

    def test_window_must_end_on_a_terminator(self, path):
        """Rows [300] and [5]: a window cut inside 300 would otherwise
        glue its first byte to the next row's and still decode."""
        stream = varint_encode(np.asarray([300, 5], dtype=np.uint64))  # AC 02 05
        for b0, b1 in (([0, 2], [1, 3]), ([0], [1]), ([0, 1], [1, 3])):
            with pytest.raises(CodecError, match="ends inside a value"):
                varint_decode(stream, windows=(np.asarray(b0), np.asarray(b1)))
        ok = varint_decode(stream, 2, windows=(np.asarray([0, 2]), np.asarray([2, 3])))
        assert ok.tolist() == [300, 5]

    def test_windows_outside_the_stream(self, path):
        stream = varint_encode(np.arange(50, dtype=np.uint64))
        for b0, b1 in (([-1], [3]), ([0], [51]), ([10], [5]), ([60], [61])):
            with pytest.raises(CodecError, match="outside the varint stream"):
                varint_decode(stream, windows=(np.asarray(b0), np.asarray(b1)))
        with pytest.raises(ValidationError):
            varint_decode(stream, windows=(np.asarray([0, 1]), np.asarray([1])))

    def test_count_is_checked_against_the_windows(self, rng, path):
        rows, stream, b0, b1 = _rows(rng)
        total = sum(r.shape[0] for r in rows[:10])
        with pytest.raises(CodecError, match=f"expected {total + 1}"):
            varint_decode(stream, total + 1, windows=(b0[:10], b1[:10]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_selection_of_rows(self, data):
        row_lists = data.draw(st.lists(
            st.lists(st.integers(0, 2**64 - 1) | st.integers(0, 500), max_size=6),
            min_size=1, max_size=12))
        rows = [np.asarray(r, dtype=np.uint64) for r in row_lists]
        ends = np.cumsum([_leb128(r).shape[0] for r in rows])
        starts = ends - np.diff(ends, prepend=0)
        stream = _leb128(np.concatenate(rows))
        pick = np.asarray(data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=15)),
                          dtype=np.int64)
        want = (np.concatenate([rows[i] for i in pick]) if pick.size
                else np.zeros(0, dtype=np.uint64))
        got = varint_decode(stream, want.shape[0], windows=(starts[pick], ends[pick]))
        assert np.array_equal(got, want)
