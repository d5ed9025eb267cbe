"""BitArray / BitReader storage-layer tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack.bitarray import BitArray, BitReader, blit_bits
from repro.errors import CodecError, ValidationError


class TestBitArrayBasics:
    def test_zeros(self):
        ba = BitArray.zeros(17)
        assert len(ba) == 17
        assert ba.nbytes == 3
        assert all(ba.get_bit(i) == 0 for i in range(17))

    def test_from_bits_roundtrip(self):
        bits = [1, 0, 1, 1, 0, 0, 0, 1, 1]
        ba = BitArray.from_bits(bits)
        assert ba.to_bits().tolist() == bits

    def test_from_bits_rejects_non_binary(self):
        with pytest.raises(ValidationError):
            BitArray.from_bits([0, 2])

    def test_buffer_too_small(self):
        with pytest.raises(ValidationError):
            BitArray(np.zeros(1, dtype=np.uint8), 9)

    def test_equality_ignores_pad_bits(self):
        a = BitArray(np.array([0b1111_1111], dtype=np.uint8), 4)
        b = BitArray(np.array([0b0000_1111], dtype=np.uint8), 4)
        assert a == b
        c = BitArray(np.array([0b0000_0111], dtype=np.uint8), 4)
        assert a != c

    def test_equality_needs_same_length(self):
        assert BitArray.zeros(3) != BitArray.zeros(4)


class TestFieldAccess:
    def test_write_read_roundtrip_across_byte_boundary(self):
        ba = BitArray.zeros(64)
        ba.write_uint(5, 13, 0b1010101010101)
        assert ba.read_uint(5, 13) == 0b1010101010101
        # neighbours untouched
        assert ba.read_uint(0, 5) == 0
        assert ba.read_uint(18, 10) == 0

    def test_write_overwrites_in_place(self):
        ba = BitArray.zeros(16)
        ba.write_uint(3, 8, 0xFF)
        ba.write_uint(3, 8, 0x0F)
        assert ba.read_uint(3, 8) == 0x0F

    def test_64_bit_fields(self):
        ba = BitArray.zeros(130)
        value = (1 << 64) - 1
        ba.write_uint(3, 64, value)
        assert ba.read_uint(3, 64) == value

    def test_value_too_wide(self):
        ba = BitArray.zeros(16)
        with pytest.raises(CodecError):
            ba.write_uint(0, 4, 16)

    def test_out_of_range_access(self):
        ba = BitArray.zeros(8)
        with pytest.raises(ValidationError):
            ba.read_uint(4, 8)
        with pytest.raises(ValidationError):
            ba.write_uint(-1, 4, 0)
        with pytest.raises(ValidationError):
            ba.get_bit(8)

    def test_width_bounds(self):
        ba = BitArray.zeros(128)
        with pytest.raises(ValidationError):
            ba.read_uint(0, 0)
        with pytest.raises(ValidationError):
            ba.read_uint(0, 65)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_random_fields_roundtrip(self, data):
        ba = BitArray.zeros(256)
        writes = []
        pos = 0
        while pos < 200:
            width = data.draw(st.integers(1, 33))
            value = data.draw(st.integers(0, (1 << width) - 1))
            ba.write_uint(pos, width, value)
            writes.append((pos, width, value))
            pos += width
        for pos, width, value in writes:
            assert ba.read_uint(pos, width) == value


class TestBlitBits:
    @pytest.mark.parametrize("pos", [0, 1, 7, 8, 13, 64])
    def test_blit_any_alignment(self, pos, rng):
        src_bits = rng.integers(0, 2, 75).tolist()
        src = BitArray.from_bits(src_bits)
        dst = BitArray.zeros(pos + 75 + 9)
        blit_bits(dst, pos, src)
        got = dst.to_bits().tolist()
        assert got[pos : pos + 75] == src_bits
        assert sum(got[:pos]) == 0 and sum(got[pos + 75 :]) == 0

    def test_blit_empty_is_noop(self):
        dst = BitArray.zeros(8)
        blit_bits(dst, 3, BitArray.zeros(0))
        assert dst.to_bits().sum() == 0

    def test_blit_out_of_bounds(self):
        with pytest.raises(ValidationError):
            blit_bits(BitArray.zeros(8), 5, BitArray.from_bits([1, 1, 1, 1]))

    def test_blit_exact_end_of_buffer_unaligned(self):
        # hi-byte spill at the very end of the destination buffer
        src = BitArray.from_bits([1] * 13)
        dst = BitArray.zeros(16)
        blit_bits(dst, 3, src)
        assert dst.to_bits().tolist() == [0, 0, 0] + [1] * 13


class TestBitStreams:
    def test_writer_reader_roundtrip(self):
        bits = BitArray.zeros(51)
        for pos, width, value in ((0, 3, 0b101), (3, 16, 0xFFFF), (19, 1, 0), (20, 31, 42)):
            bits.write_uint(pos, width, value)
        r = BitReader(bits)
        assert r.read(3) == 0b101
        assert r.read(16) == 0xFFFF
        assert r.read(1) == 0
        assert r.read(31) == 42
        assert r.at_end()

    def test_unary(self):
        # unary(n) is n zero bits then a one bit
        r = BitReader(BitArray.from_bits([1] + [0] * 5 + [1] + [0, 0, 1]))
        assert [r.read_unary() for _ in range(3)] == [0, 5, 2]

    def test_unary_past_end(self):
        r = BitReader(BitArray.from_bits([0, 0, 0]))  # never terminated
        with pytest.raises(CodecError):
            r.read_unary()

    def test_reader_remaining(self):
        r = BitReader(BitArray.zeros(10), pos=4)
        assert r.remaining == 6
        with pytest.raises(ValidationError):
            BitReader(BitArray.zeros(4), pos=5)
