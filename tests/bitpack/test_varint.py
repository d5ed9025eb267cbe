"""LEB128 varint codec tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack.varint import (
    VarintCodec,
    varint_decode,
    varint_encode,
    varint_max_bits,
    varint_nbytes,
)
from repro.errors import CodecError, ValidationError
from repro.utils import bits_for_value


class TestEncodedLengths:
    @pytest.mark.parametrize(
        "value,nbytes",
        [(0, 1), (127, 1), (128, 2), (2**14 - 1, 2), (2**14, 3), (2**63, 10)],
    )
    def test_boundaries(self, value, nbytes):
        assert varint_nbytes(np.array([value], dtype=np.uint64))[0] == nbytes
        assert varint_encode(np.array([value], dtype=np.uint64)).shape[0] == nbytes

    def test_wire_format_example(self):
        # 300 = 0b10_0101100 -> AC 02 (LEB128 reference vector)
        assert varint_encode(np.array([300], dtype=np.uint64)).tolist() == [0xAC, 0x02]


class TestRoundtrip:
    def test_mixed_magnitudes(self, rng):
        exponents = rng.integers(0, 63, 3000)
        values = (rng.integers(0, 2, 3000).astype(np.uint64) << exponents.astype(np.uint64))
        stream = varint_encode(values)
        assert np.array_equal(varint_decode(stream), values)
        assert np.array_equal(varint_decode(stream, 3000), values)

    def test_empty(self):
        assert varint_encode(np.zeros(0, dtype=np.uint64)).shape == (0,)
        assert varint_decode(np.zeros(0, dtype=np.uint8)).shape == (0,)

    def test_uint64_max(self):
        v = np.array([2**64 - 1], dtype=np.uint64)
        assert np.array_equal(varint_decode(varint_encode(v)), v)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=150))
    def test_property(self, values):
        arr = np.asarray(values, dtype=np.uint64)
        assert np.array_equal(varint_decode(varint_encode(arr)), arr)


class TestMaxBits:
    """The fixed width a stream's values need, read off its bytes."""

    @staticmethod
    def _expected(stream):
        return bits_for_value(int(varint_decode(stream).max()))

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_every_width(self, bits, rng):
        top = np.uint64(1) << np.uint64(bits - 1)  # exactly *bits* bits
        low = rng.integers(0, 2 ** min(bits - 1, 62), 40, dtype=np.uint64) if bits > 1 else []
        values = np.concatenate([np.asarray(low, dtype=np.uint64), [top, top - np.uint64(1)]])
        stream = varint_encode(rng.permutation(values))
        assert varint_max_bits(stream) == bits == self._expected(stream)

    @pytest.mark.parametrize("value", [0, 1, 127, 128, 2**56, 2**63 - 1, 2**63, 2**64 - 1])
    def test_one_value(self, value):
        stream = varint_encode(np.array([value], dtype=np.uint64))
        assert varint_max_bits(stream) == self._expected(stream) == bits_for_value(value)

    def test_nine_and_ten_byte_codes(self):
        values = np.array([5, 2**62, 3, 2**63 + 7, 1], dtype=np.uint64)
        stream = varint_encode(values)
        assert {varint_nbytes(values)[1], varint_nbytes(values)[3]} == {9, 10}
        assert varint_max_bits(stream) == 64 == self._expected(stream)
        assert varint_max_bits(varint_encode(values[:3])) == 63

    def test_lone_zero_and_empty(self):
        assert varint_max_bits(varint_encode(np.zeros(1, dtype=np.uint64))) == 1
        assert varint_max_bits(varint_encode(np.zeros(9, dtype=np.uint64))) == 1
        assert varint_max_bits(np.zeros(0, dtype=np.uint8)) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
    def test_property(self, values):
        stream = varint_encode(np.asarray(values, dtype=np.uint64))
        assert varint_max_bits(stream) == self._expected(stream)


class TestFailureModes:
    def test_truncated_stream(self):
        stream = varint_encode(np.array([300], dtype=np.uint64))[:-1]
        with pytest.raises(CodecError, match="truncated"):
            varint_decode(stream)

    def test_count_mismatch(self):
        stream = varint_encode(np.array([1, 2, 3], dtype=np.uint64))
        with pytest.raises(CodecError, match="expected 2"):
            varint_decode(stream, 2)
        with pytest.raises(CodecError):
            varint_decode(np.zeros(0, dtype=np.uint8), 1)

    def test_overlong_run_rejected(self):
        stream = np.array([0x80] * 11 + [0x00], dtype=np.uint8)
        with pytest.raises(CodecError, match="10 bytes"):
            varint_decode(stream)

    def test_rejects_negative_input(self):
        with pytest.raises(ValidationError):
            varint_encode(np.array([-1]))

    def test_rejects_2d_stream(self):
        with pytest.raises(ValidationError):
            varint_decode(np.zeros((2, 2), dtype=np.uint8))


class TestVarintCodec:
    def test_registry_roundtrip(self, rng):
        codec = VarintCodec()
        values = rng.integers(0, 10**6, 500).astype(np.uint64)
        enc = codec.encode(values)
        assert enc.codec == "varint"
        assert np.array_equal(codec.decode(enc), values)

    def test_skewed_beats_fixed_on_size(self, rng):
        """Tiny values with one huge outlier: varint wins, which is the
        premise of the codec ablation."""
        from repro.bitpack.fixed import FixedWidthCodec

        values = rng.integers(0, 4, 1000).astype(np.uint64)
        values[0] = 2**40
        assert VarintCodec().encode(values).nbits < FixedWidthCodec().encode(values).nbits
