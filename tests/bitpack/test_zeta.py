"""Zeta-k codec tests: boundaries, adversarial values, row decode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack.zeta import (
    zeta_decode,
    zeta_decode_rows,
    zeta_encode,
    zeta_value_nbits,
)
from repro.errors import CodecError

KS = [1, 2, 3, 4]


def _roundtrip(values, k):
    arr = np.asarray(values, dtype=np.uint64)
    bits = zeta_encode(arr, k)
    assert bits.nbits == int(zeta_value_nbits(arr, k).sum())
    out = zeta_decode(bits, arr.shape[0], k)
    assert np.array_equal(out, arr)


class TestScalarRoundtrip:
    @pytest.mark.parametrize("k", KS)
    def test_empty(self, k):
        _roundtrip([], k)

    @pytest.mark.parametrize("k", KS)
    def test_zeros_and_small(self, k):
        _roundtrip([0] * 17, k)
        _roundtrip(list(range(64)), k)

    @pytest.mark.parametrize("k", KS)
    def test_power_boundaries(self, k):
        # values straddling every shard boundary x = 2^(h*k)
        vals = []
        for h in range(1, 64 // k):
            x = 1 << (h * k)
            vals += [x - 2, x - 1, x]
        vals = [v for v in vals if 0 <= v <= 2**63 - 1]
        _roundtrip(vals, k)

    @pytest.mark.parametrize("k", KS)
    def test_max_value(self, k):
        _roundtrip([2**63 - 1, 0, 2**63 - 2], k)

    @pytest.mark.parametrize("k", KS)
    def test_domain_limit(self, k):
        with pytest.raises(CodecError):
            zeta_encode(np.array([2**63], dtype=np.uint64), k)

    @pytest.mark.parametrize("k", KS)
    def test_skewed_mixture(self, rng, k):
        exp = rng.integers(0, 62, 2000)
        vals = rng.integers(0, 2, 2000).astype(np.uint64) << exp.astype(np.uint64)
        _roundtrip(vals, k)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(st.integers(0, 2**63 - 1), max_size=120),
    )
    def test_property(self, k, values):
        _roundtrip(values, k)


class TestRowDecode:
    @pytest.mark.parametrize("k", KS)
    def test_matches_scalar_on_random_rows(self, rng, k):
        vals = (rng.pareto(1.0, 3000) * 100).astype(np.uint64)
        bits = zeta_encode(vals, k)
        nbits = zeta_value_nbits(vals, k).astype(np.int64)
        pos = np.concatenate([[0], np.cumsum(nbits)])
        # random partition into rows, decoded in a shuffled order
        cuts = np.sort(rng.choice(3000, 40, replace=False))
        starts = np.concatenate([[0], cuts, [3000]])
        rows = rng.permutation(starts.shape[0] - 1)
        bit_starts = pos[starts[rows]]
        counts = (starts[1:] - starts[:-1])[rows]
        flat, offsets = zeta_decode_rows(bits, bit_starts, counts, k)
        for i, r in enumerate(rows):
            expect = vals[starts[r]:starts[r + 1]]
            assert np.array_equal(flat[offsets[i]:offsets[i + 1]], expect)

    @pytest.mark.parametrize("k", KS)
    def test_empty_and_single_rows(self, k):
        vals = np.array([5, 1, 0, 2**40], dtype=np.uint64)
        bits = zeta_encode(vals, k)
        nbits = zeta_value_nbits(vals, k).astype(np.int64)
        pos = np.concatenate([[0], np.cumsum(nbits)])
        bit_starts = np.array([0, pos[1], pos[1], pos[3]], dtype=np.int64)
        counts = np.array([1, 2, 0, 1], dtype=np.int64)
        flat, offsets = zeta_decode_rows(bits, bit_starts, counts, k)
        assert np.array_equal(flat, vals)
        assert np.array_equal(offsets, [0, 1, 3, 3, 4])

    def test_zero_rows(self):
        bits = zeta_encode(np.zeros(0, dtype=np.uint64), 2)
        flat, offsets = zeta_decode_rows(
            bits, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 2
        )
        assert flat.shape == (0,)
        assert np.array_equal(offsets, [0])
