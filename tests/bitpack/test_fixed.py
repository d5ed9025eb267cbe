"""Fixed-width packing — the codec of [7] — including layout agreement
between the vectorised kernels and the scalar BitArray accessors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack.bitarray import BitArray
from repro.bitpack.fixed import (
    pack_fixed,
    read_field,
    unpack_fixed,
    unpack_slice,
)
from repro.errors import CodecError, FieldOverflowError, ValidationError


class TestPackFixed:
    def test_roundtrip_auto_width(self, rng):
        values = rng.integers(0, 1 << 19, 5000).astype(np.uint64)
        bits = pack_fixed(values)
        assert bits.nbits == 5000 * 19
        assert np.array_equal(unpack_fixed(bits, 5000, 19), values)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 31, 32, 33, 63, 64])
    def test_roundtrip_every_tricky_width(self, width, rng):
        hi = (1 << width) - 1
        values = rng.integers(0, hi, 257, dtype=np.uint64, endpoint=True)
        bits = pack_fixed(values, width)
        assert np.array_equal(unpack_fixed(bits, 257, width), values)

    def test_zero_values_need_one_bit(self):
        bits = pack_fixed(np.zeros(10, dtype=np.uint64))
        assert bits.nbits == 10

    def test_empty(self):
        bits = pack_fixed(np.zeros(0, dtype=np.uint64))
        assert bits.nbits == 0
        assert unpack_fixed(bits, 0, 5).shape == (0,)

    def test_overflow_detected(self):
        with pytest.raises(FieldOverflowError):
            pack_fixed(np.array([8], dtype=np.uint64), 3)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            pack_fixed(np.array([-1, 2]))

    def test_rejects_floats_and_2d(self):
        with pytest.raises(ValidationError):
            pack_fixed(np.array([1.5]))
        with pytest.raises(ValidationError):
            pack_fixed(np.zeros((2, 2), dtype=np.int64))

    def test_layout_matches_scalar_writes(self, rng):
        """The vectorised pack and BitArray.write_uint must address the
        same bit positions — the query path depends on it."""
        values = rng.integers(0, 1 << 13, 50).astype(np.uint64)
        vec = pack_fixed(values, 13)
        scalar = BitArray.zeros(50 * 13)
        for i, v in enumerate(values.tolist()):
            scalar.write_uint(i * 13, 13, v)
        assert vec == scalar

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 2**48 - 1), min_size=0, max_size=120),
        st.integers(48, 64),
    )
    def test_property_roundtrip(self, values, width):
        arr = np.asarray(values, dtype=np.uint64)
        bits = pack_fixed(arr, width)
        assert np.array_equal(unpack_fixed(bits, arr.size, width), arr)


class TestUnpackSliceAndReadField:
    def test_slice_matches_source(self, rng):
        values = rng.integers(0, 1 << 11, 400).astype(np.uint64)
        bits = pack_fixed(values, 11)
        assert np.array_equal(unpack_slice(bits, 11, 100, 37), values[100:137])
        assert np.array_equal(unpack_slice(bits, 11, 0, 0), values[:0])

    def test_read_field_scalar(self, rng):
        values = rng.integers(0, 1 << 21, 64).astype(np.uint64)
        bits = pack_fixed(values, 21)
        for i in (0, 1, 31, 63):
            assert read_field(bits, 21, i) == values[i]

    def test_decode_past_end(self):
        bits = pack_fixed(np.arange(4, dtype=np.uint64), 3)
        with pytest.raises(CodecError):
            unpack_fixed(bits, 5, 3)
        with pytest.raises(ValidationError):
            unpack_slice(bits, 3, -1, 2)

    def test_bad_widths(self):
        bits = pack_fixed(np.arange(4, dtype=np.uint64), 3)
        with pytest.raises(ValidationError):
            unpack_fixed(bits, 1, 0)
        with pytest.raises(ValidationError):
            unpack_fixed(bits, 1, 65)
        with pytest.raises(ValidationError):
            unpack_fixed(bits, -1, 3)
