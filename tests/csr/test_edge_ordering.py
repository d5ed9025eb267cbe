"""The one ordering home: fused-key sorts equal the ``np.lexsort`` forms.

``ensure_sorted`` / ``sort_edges`` / ``sort_within_rows`` must return
exactly what the lexsort-and-gather code they replaced returned —
values, dtypes and tie order — on both sides of the 63-bit
representability rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csr.builder import ensure_sorted
from repro.errors import ValidationError
from repro.parallel import SimulatedMachine
from repro.parallel import sort as ordering
from repro.parallel.sort import sort_edges, sort_within_rows

DTYPES = [np.int32, np.uint32, np.int64, np.uint64]


def _edges(seed, m, max_src, max_dst, src_dtype, dst_dtype):
    """Random edge list with duplicate edges (half the list is repeats)."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, max_src, m, endpoint=True, dtype=np.uint64)
    dst = rng.integers(0, max_dst, m, endpoint=True, dtype=np.uint64)
    repeats = rng.integers(0, max(1, m), m // 2)
    src[: m // 2], dst[: m // 2] = src[repeats], dst[repeats]
    return src.astype(src_dtype), dst.astype(dst_dtype)


def _assert_same(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestEnsureSorted:
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0, 1, 2, 3, 50, 400]),
        st.sampled_from([0, 1, 7, 2**20, 2**31 - 1]),
        st.sampled_from([0, 1, 7, 2**20, 2**31 - 1]),
        st.sampled_from(DTYPES),
        st.sampled_from(DTYPES),
    )
    def test_equals_lexsort_in_values_and_dtypes(
        self, seed, m, max_src, max_dst, src_dtype, dst_dtype
    ):
        src, dst = _edges(seed, m, max_src, max_dst, src_dtype, dst_dtype)
        order = np.lexsort((dst, src))
        got_src, got_dst = ensure_sorted(src, dst)
        _assert_same(got_src, src[order])
        _assert_same(got_dst, dst[order])
        # sorted input is the contract's no-op: the same objects come back
        again = ensure_sorted(got_src, got_dst)
        assert again[0] is got_src and again[1] is got_dst

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    @pytest.mark.parametrize(
        "src_bits,dst_bits,keyed",
        [(31, 32, True), (32, 31, True), (1, 62, True), (32, 32, False), (1, 63, False)],
    )
    def test_63_bit_boundary(self, rng, dtype, src_bits, dst_bits, keyed):
        """The key is used up to 63 bits in total; one more and the
        lexsort fallback takes over — same answer either way."""
        m = 300
        src = rng.integers(0, 2**src_bits, m, dtype=np.uint64)
        dst = rng.integers(0, 2**dst_bits, m, dtype=np.uint64)
        src[0], dst[0] = 2**src_bits - 1, 2**dst_bits - 1  # reach the top bit
        src[1:100], dst[1:100] = src[100:199], dst[100:199]  # duplicates
        src, dst = src.astype(dtype), dst.astype(dtype)
        assert (ordering._fuse(src, dst) is not None) == keyed
        order = np.lexsort((dst, src))
        got_src, got_dst = ensure_sorted(src, dst)
        _assert_same(got_src, src[order])
        _assert_same(got_dst, dst[order])

    def test_negative_ids_fall_back(self):
        src = np.array([3, -1, 3, 0], dtype=np.int64)
        dst = np.array([2, 5, -7, 1], dtype=np.int64)
        assert ordering._fuse(src, dst) is None
        got_src, got_dst = ensure_sorted(src, dst)
        assert got_src.tolist() == [-1, 0, 3, 3] and got_dst.tolist() == [5, 1, -7, 2]

    def test_input_is_not_modified(self, rng):
        src, dst = rng.integers(0, 50, 500), rng.integers(0, 50, 500)
        keep_src, keep_dst = src.copy(), dst.copy()
        out_src, out_dst = ensure_sorted(src, dst)
        assert np.array_equal(src, keep_src) and np.array_equal(dst, keep_dst)
        assert not np.shares_memory(out_src, src) and not np.shares_memory(out_dst, dst)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="equal length"):
            ensure_sorted(np.array([2, 1, 0]), np.array([1]))


class TestSortEdges:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0, 1, 2, 64, 500]),
        st.sampled_from([0, 3, 2**31 - 1, 2**32 - 1]),
        st.sampled_from([1, 4, 16]),
    )
    def test_stable_order_with_weighted_duplicates(self, seed, m, max_id, p):
        """Weights ride along under exactly the lexsort permutation:
        duplicate edges keep their input order."""
        src, dst = _edges(seed, m, max_id, max_id, np.int64, np.uint64)
        order = np.lexsort((dst, src))
        out_src, out_dst, out_w = sort_edges(
            src, dst, np.arange(m, dtype=np.int32), SimulatedMachine(p)
        )
        _assert_same(out_w, order.astype(np.int32))
        _assert_same(out_src, src[order])
        _assert_same(out_dst, dst[order])
        # the unweighted value sort agrees, and returns no weights
        plain = sort_edges(src, dst, executor=SimulatedMachine(p))
        _assert_same(plain[0], src[order])
        _assert_same(plain[1], dst[order])
        assert plain[2] is None

    def test_same_charges_with_and_without_weights(self, rng):
        """The value sort and the argsort declare identical costs."""
        src, dst = rng.integers(0, 900, 20_000), rng.integers(0, 900, 20_000)
        elapsed = []
        for weights in (None, np.arange(20_000)):
            machine = SimulatedMachine(8)
            sort_edges(src, dst, weights, machine)
            elapsed.append(machine.elapsed_ns())
        assert elapsed[0] == elapsed[1]


class TestSortWithinRows:
    @staticmethod
    def _reference(offsets, vals):
        row_ids = np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))
        return vals[np.lexsort((vals, row_ids))]

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 40),
        st.sampled_from([0, 1, 9]),
        st.sampled_from([1, 2**17, 2**40, 2**63 - 1, 2**64 - 1]),
        st.sampled_from([np.uint32, np.int64, np.uint64]),
    )
    def test_equals_lexsort_form(self, seed, num_rows, max_deg, max_val, dtype):
        rng = np.random.default_rng(seed)
        degs = rng.integers(0, max_deg, num_rows, endpoint=True)
        degs[::3] = 0  # empty rows
        offsets = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(degs, out=offsets[1:])
        top = min(max_val, np.iinfo(dtype).max)
        vals = rng.integers(0, top, int(offsets[-1]), endpoint=True, dtype=np.uint64)
        vals = vals.astype(dtype)
        _assert_same(sort_within_rows(offsets, vals), self._reference(offsets, vals))
        # offsets need not start at zero (a segment of a larger CSR)
        _assert_same(sort_within_rows(offsets + 17, vals), self._reference(offsets, vals))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 40),
        st.sampled_from([0, 1, 9]),
        st.sampled_from([1, 2**17, 2**40, 2**63 - 1, 2**64 - 1]),
        st.sampled_from([np.uint32, np.int64, np.uint64]),
    )
    def test_row_position_form_equals_lexsort_form(
        self, seed, num_rows, max_deg, max_val, dtype
    ):
        """Rows moved to *positions* and sorted within, in one sort: the
        lexsort with the positions as the row key, on both sides of the
        63-bit rule (empty rows, duplicate values, every dtype)."""
        rng = np.random.default_rng(seed)
        degs = rng.integers(0, max_deg, num_rows, endpoint=True)
        degs[::3] = 0  # empty rows
        offsets = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(degs, out=offsets[1:])
        top = min(max_val, np.iinfo(dtype).max)
        vals = rng.integers(0, top, int(offsets[-1]), endpoint=True, dtype=np.uint64)
        vals = vals.astype(dtype)
        vals[1::2] = vals[::2][: vals[1::2].shape[0]]  # duplicate values
        positions = rng.permutation(num_rows)
        row_ids = np.repeat(positions, degs)
        want = vals[np.lexsort((vals, row_ids))]
        _assert_same(sort_within_rows(offsets, vals, positions), want)
        _assert_same(sort_within_rows(offsets + 17, vals, positions), want)

    def test_row_position_form_wide_fallback(self, rng, monkeypatch):
        """Ids too wide for one key take the ``sort_edges`` fallback."""
        vals = rng.integers(0, 2**63 - 1, 60, dtype=np.int64)
        vals[30:] = vals[:30]
        offsets = np.array([0, 10, 10, 35, 60], dtype=np.int64)
        positions = np.array([2, 0, 3, 1])
        assert ordering._fuse(np.repeat(positions, np.diff(offsets)), vals) is None
        row_ids = np.repeat(positions, np.diff(offsets))
        want = vals[np.lexsort((vals, row_ids))]
        _assert_same(sort_within_rows(offsets, vals, positions), want)
        calls = []
        real = ordering.sort_edges
        monkeypatch.setattr(ordering, "sort_edges",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        _assert_same(sort_within_rows(offsets, vals, positions), want)
        assert calls == [1]

    def test_single_giant_row(self, rng):
        vals = rng.integers(0, 2**20, 50_000).astype(np.uint64)
        offsets = np.array([0, 0, vals.shape[0], vals.shape[0]], dtype=np.int64)
        _assert_same(sort_within_rows(offsets, vals), np.sort(vals))
