"""The contiguous kernels behind ``pack_fixed`` / ``unpack_fixed``.

Long runs go through eight strided word views (8 fields occupy exactly
``width`` bytes), short or exotic ones through the ``(count, width)``
bit matrix.  Both must write the same bytes and read the same values:
the packed stream is an on-disk format.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bitpack import fixed
from repro.bitpack.bitarray import BitArray, blit_bits
from repro.bitpack.fixed import pack_fixed, unpack_fixed, unpack_slice

# bits in a run long enough for the strided kernels at every width
LONG_BITS = fixed._STRIDED_MIN_BITS


def _values(rng, width, n):
    return rng.integers(0, (1 << width) - 1, n, dtype=np.uint64, endpoint=True)


def _oracle(bits, width, count, bit_offset=0):
    """Pure-Python decode, one ``read_uint`` per field."""
    return np.array(
        [bits.read_uint(bit_offset + i * width, width) for i in range(count)],
        dtype=np.uint64,
    )


@pytest.fixture
def strided_always(monkeypatch):
    """Send every run the word kernels can take through them."""
    monkeypatch.setattr(fixed, "_STRIDED_MIN_BITS", 0)


class TestPackedBytes:
    @pytest.mark.parametrize("width", range(1, 65))
    def test_long_run_matches_bit_matrix(self, width, rng):
        values = _values(rng, width, LONG_BITS // width + 13)
        bits = pack_fixed(values, width)
        assert bits.nbits == values.shape[0] * width
        assert bits.buffer.shape[0] == bits.nbytes
        assert np.array_equal(bits.buffer, fixed._pack_bitmatrix(values, width))

    @pytest.mark.parametrize("width", range(1, 65))
    def test_every_short_count_matches_bit_matrix(self, width, rng, strided_always):
        for n in (1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65):
            values = _values(rng, width, n)
            bits = pack_fixed(values, width)
            assert np.array_equal(bits.buffer, fixed._pack_bitmatrix(values, width))

    def test_portable_fallback_same_bytes(self, rng):
        values = _values(rng, 17, 5_000)
        fast = pack_fixed(values, 17)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fixed, "_LITTLE_ENDIAN", False)
            slow = pack_fixed(values, 17)
        assert np.array_equal(fast.buffer, slow.buffer)

    def test_input_dtypes_and_views(self, rng):
        """Signed, narrow and strided inputs pack like their uint64 copy."""
        base = rng.integers(0, 1 << 11, 6_000)
        want = fixed._pack_bitmatrix(base.astype(np.uint64), 11)
        for arr in (base, base.astype(np.uint16), base.astype(np.int32),
                    np.repeat(base, 2)[::2]):
            assert np.array_equal(pack_fixed(arr, 11).buffer, want)

    def test_no_per_bit_temporary(self):
        """Packing 1M 17-bit values peaks under 3x the input bytes: the
        (n, width) bit matrix (136 B per value here) must not come back."""
        values = (np.arange(1_000_000, dtype=np.uint64) * 2_654_435_761) & 0x1FFFF
        pack_fixed(values[:4_096], 17)  # warm caches outside the trace
        tracemalloc.start()
        try:
            bits = pack_fixed(values, 17)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * values.nbytes
        assert np.array_equal(unpack_fixed(bits, values.shape[0], 17), values)


class TestUnpack:
    @pytest.mark.parametrize("width", range(1, 65))
    def test_every_width_against_read_uint(self, width, rng):
        n = LONG_BITS // width + 13
        values = _values(rng, width, n)
        bits = pack_fixed(values, width)
        got = unpack_fixed(bits, n, width)
        assert got.dtype == np.uint64
        assert np.array_equal(got, values)
        # the pure-Python oracle on the head, the tail and a middle stretch
        for first in (0, n // 2, n - 40):
            assert np.array_equal(
                got[first : first + 40], _oracle(bits, width, 40, first * width)
            )

    @pytest.mark.parametrize("width", [1, 3, 8, 11, 17, 32, 33, 57])
    def test_bit_offset_not_byte_aligned(self, width, rng):
        """A run may start at any bit: CompactStore reads offset pairs at
        ``u * width`` and codec payloads start behind odd-sized headers."""
        n = LONG_BITS // width + 50
        values = _values(rng, width, n)
        bits = pack_fixed(values, width)
        for skip in (1, 3, 5, 8, 21):
            got = unpack_slice(bits, width, skip, n - skip)
            assert np.array_equal(got, values[skip:])
        # an offset that is no multiple of the width either
        shifted = BitArray.zeros(bits.nbits + 5)
        blit_bits(shifted, 5, bits)
        assert np.array_equal(unpack_fixed(shifted, n, width, bit_offset=5), values)

    @pytest.mark.parametrize("width", [1, 5, 8, 9, 17, 31, 40, 56, 57])
    def test_last_field_ends_on_last_byte(self, width, rng):
        """Field count a multiple of 8: the stream fills the buffer, so
        the last fields' 8-byte loads would overrun it."""
        n = ((LONG_BITS // width + 8) // 8) * 8
        values = _values(rng, width, n)
        bits = pack_fixed(values, width)
        assert bits.nbits == 8 * bits.buffer.shape[0]
        assert np.array_equal(unpack_fixed(bits, n, width), values)
        assert np.array_equal(unpack_slice(bits, width, n - 3, 3), values[-3:])

    @pytest.mark.parametrize("nbytes", range(1, 10))
    def test_tiny_buffers(self, nbytes, rng, strided_always):
        """Buffers of 1-9 bytes, every count that fits, every phase."""
        raw = rng.integers(0, 256, nbytes, dtype=np.uint8)
        for width in (1, 2, 3, 7, 8, 9, 13, 31, 57, 64):
            total = (8 * nbytes) // width
            bits = BitArray(raw, 8 * nbytes)
            for first in range(min(total, 9)):
                count = total - first
                assert np.array_equal(
                    unpack_slice(bits, width, first, count),
                    _oracle(bits, width, count, first * width),
                )

    @pytest.mark.parametrize("width", range(1, 65))
    def test_short_counts_not_multiple_of_8(self, width, rng, strided_always):
        values = _values(rng, width, 70)
        bits = pack_fixed(values, width)
        for first, count in ((0, 70), (1, 69), (3, 5), (9, 61), (62, 8), (69, 1)):
            assert np.array_equal(
                unpack_slice(bits, width, first, count), values[first : first + count]
            )

    def test_readonly_memmap_is_read_in_place(self, tmp_path, rng):
        values = _values(rng, 23, 9_001)
        bits = pack_fixed(values, 23)
        path = tmp_path / "columns.seg"
        bits.buffer.tofile(path)
        mm = np.memmap(path, dtype=np.uint8, mode="r")
        mapped = BitArray(mm, bits.nbits)
        assert not mapped.buffer.flags.writeable
        assert np.array_equal(unpack_fixed(mapped, 9_001, 23), values)
        assert np.array_equal(unpack_slice(mapped, 23, 11, 8_990), values[11:])

    def test_non_contiguous_buffer(self, rng):
        values = _values(rng, 13, 4_000)
        bits = pack_fixed(values, 13)
        spread = np.zeros(2 * bits.buffer.shape[0], dtype=np.uint8)
        spread[::2] = bits.buffer
        strided = BitArray(spread[::2], bits.nbits)
        assert not strided.buffer.flags.c_contiguous
        assert np.array_equal(unpack_fixed(strided, 4_000, 13), values)

    @pytest.mark.parametrize("width", [1, 8, 17, 57, 64])
    def test_portable_fallback_matches(self, width, rng, portable_only):
        n = LONG_BITS // width + 13
        values = _values(rng, width, n)
        bits = pack_fixed(values, width)
        assert np.array_equal(unpack_fixed(bits, n, width), values)
        assert np.array_equal(unpack_slice(bits, width, 5, n - 5), values[5:])
