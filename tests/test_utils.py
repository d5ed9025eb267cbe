"""Unit tests for repro.utils."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.utils import (
    as_uint_array,
    batched,
    bits_for_count,
    bits_for_value,
    ceil_div,
    digits10,
    human_bytes,
    is_sorted,
    min_uint_dtype,
    require,
)


class TestRequire:
    def test_passes_on_true(self):
        require(True, "never raised")

    def test_raises_with_message(self):
        with pytest.raises(ValidationError, match="boom"):
            require(False, "boom")


class TestAsUintArray:
    def test_accepts_lists(self):
        out = as_uint_array([1, 2, 3])
        assert out.dtype == np.uint64
        assert out.tolist() == [1, 2, 3]

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="non-negative"):
            as_uint_array([-1, 2])

    def test_rejects_floats(self):
        with pytest.raises(ValidationError, match="integer"):
            as_uint_array(np.array([1.5, 2.0]))

    def test_rejects_2d(self):
        with pytest.raises(ValidationError, match="1-D"):
            as_uint_array(np.zeros((2, 2), dtype=np.int64))

    def test_empty_ok(self):
        assert as_uint_array([]).shape == (0,)


class TestIsSorted:
    def test_sorted(self):
        assert is_sorted(np.array([1, 1, 2, 5]))

    def test_unsorted(self):
        assert not is_sorted(np.array([2, 1]))

    def test_short_arrays_vacuous(self):
        assert is_sorted(np.array([]))
        assert is_sorted(np.array([7]))


class TestHumanBytes:
    def test_bytes(self):
        assert human_bytes(512) == "512 B"

    def test_mib(self):
        assert human_bytes(24.73 * 1024**2) == "24.73 MiB"

    def test_gib(self):
        assert human_bytes(1.1 * 1024**3) == "1.10 GiB"

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            human_bytes(-1)


class TestCeilDiv:
    @pytest.mark.parametrize("a,b,want", [(0, 3, 0), (1, 3, 1), (3, 3, 1), (4, 3, 2)])
    def test_values(self, a, b, want):
        assert ceil_div(a, b) == want

    def test_rejects_zero_divisor(self):
        with pytest.raises(ValidationError):
            ceil_div(1, 0)


class TestBitsFor:
    def test_zero_needs_one_bit(self):
        assert bits_for_value(0) == 1

    @pytest.mark.parametrize("v,w", [(1, 1), (2, 2), (3, 2), (255, 8), (256, 9)])
    def test_widths(self, v, w):
        assert bits_for_value(v) == w

    def test_count_semantics(self):
        assert bits_for_count(0) == 1
        assert bits_for_count(1) == 1
        assert bits_for_count(256) == 8  # ids 0..255

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            bits_for_value(-1)

    @given(st.integers(min_value=0, max_value=2**63))
    def test_value_fits_in_width(self, v):
        w = bits_for_value(v)
        assert v < (1 << w)
        assert w == 1 or v >= (1 << (w - 1))


class TestDigits10:
    def test_examples(self):
        got = digits10(np.array([0, 9, 10, 99, 100, 10**12], dtype=np.uint64))
        assert got.tolist() == [1, 1, 2, 2, 3, 13]

    @given(st.integers(min_value=0, max_value=10**18))
    def test_matches_str_len(self, v):
        assert digits10(np.array([v], dtype=np.uint64))[0] == len(str(v))


class TestMinUintDtype:
    @pytest.mark.parametrize(
        "v,dt", [(0, np.uint8), (255, np.uint8), (256, np.uint16), (2**32, np.uint64)]
    )
    def test_choices(self, v, dt):
        assert min_uint_dtype(v) == np.dtype(dt)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            min_uint_dtype(-1)


class TestBatched:
    def test_splits(self):
        assert list(batched(range(5), 2)) == [[0, 1], [2, 3], [4]]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            list(batched([1], 0))
