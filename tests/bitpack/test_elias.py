"""Elias gamma/delta code lengths — the codec ablation's comparators.

The lengths are of the code of ``v + 1`` (so zero gaps are codable),
checked against a per-element ``int.bit_length`` oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack.zeta import elias_delta_nbits, elias_gamma_nbits
from repro.errors import CodecError

MAX_VALUE = 2**63 - 1


def gamma_oracle(v: int) -> int:
    # unary(len - 1) then the low len - 1 bits of v + 1
    return 2 * ((v + 1).bit_length() - 1) + 1


def delta_oracle(v: int) -> int:
    # gamma(len) then the low len - 1 bits of v + 1
    low = (v + 1).bit_length() - 1
    return low + 2 * ((low + 1).bit_length() - 1) + 1


def _check(values):
    arr = np.asarray(values, dtype=np.uint64)
    assert elias_gamma_nbits(arr).tolist() == [gamma_oracle(v) for v in values]
    assert elias_delta_nbits(arr).tolist() == [delta_oracle(v) for v in values]


class TestEliasLengths:
    def test_hand_checked_values(self):
        # gamma(1) = 1, gamma(2) = 010, delta(1) = 1, delta(2) = 0100
        values = np.array([0, 1, 2, 3, MAX_VALUE], dtype=np.uint64)
        assert elias_gamma_nbits(values).tolist() == [1, 3, 3, 5, 127]
        assert elias_delta_nbits(values).tolist() == [1, 4, 4, 5, 76]

    def test_power_of_two_boundaries(self):
        # v + 1 on either side of every power of two up to 2**63
        values = sorted({v for j in range(64) for v in (2**j - 2, 2**j - 1, 2**j)
                         if 0 <= v <= MAX_VALUE})
        _check(values)

    def test_empty(self):
        for fn in (elias_gamma_nbits, elias_delta_nbits):
            out = fn(np.zeros(0, dtype=np.uint64))
            assert out.shape == (0,) and out.dtype == np.int64

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, MAX_VALUE), max_size=60))
    def test_property(self, values):
        _check(values)

    def test_delta_beats_gamma_for_large_values(self, rng):
        values = rng.integers(2**20, 2**30, 500).astype(np.uint64)
        assert elias_delta_nbits(values).sum() < elias_gamma_nbits(values).sum()

    @pytest.mark.parametrize("fn", [elias_gamma_nbits, elias_delta_nbits])
    def test_domain(self, fn):
        assert fn(np.array([MAX_VALUE], dtype=np.uint64)).shape == (1,)
        with pytest.raises(CodecError, match="up to"):
            fn(np.array([MAX_VALUE + 1], dtype=np.uint64))
