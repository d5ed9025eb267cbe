"""Row-aware gap/delta transform tests over CSR rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitpack.delta import row_gaps, rows_from_gaps
from repro.errors import ValidationError


class TestRowGaps:
    def test_resets_at_row_boundaries(self):
        indptr = np.array([0, 3, 3, 7, 10])
        indices = np.array([1, 5, 9, 0, 2, 3, 8, 2, 4, 6], dtype=np.uint64)
        gaps = row_gaps(indptr, indices)
        # row heads stay absolute
        assert gaps[0] == 1 and gaps[3] == 0 and gaps[7] == 2
        assert np.array_equal(rows_from_gaps(indptr, gaps), indices)

    def test_gaps_shrink_value_range(self, rng):
        """The point of the transform: max gap << max id on sorted rows."""
        n = 1 << 16
        indices = np.sort(rng.integers(0, n, 5000).astype(np.uint64))
        indptr = np.array([0, 5000])
        gaps = row_gaps(indptr, indices)
        assert int(gaps[1:].max()) < n // 8

    def test_rejects_unsorted_rows(self):
        indptr = np.array([0, 2])
        with pytest.raises(ValidationError, match="sorted"):
            row_gaps(indptr, np.array([5, 3], dtype=np.uint64))

    def test_rejects_misaligned_indptr(self):
        with pytest.raises(ValidationError):
            row_gaps(np.array([0, 5]), np.array([1, 2], dtype=np.uint64))
        with pytest.raises(ValidationError):
            rows_from_gaps(np.array([0, 5]), np.array([1, 2], dtype=np.uint64))

    def test_empty_rows_and_graph(self):
        indptr = np.array([0, 0, 0, 0])
        empty = np.zeros(0, dtype=np.uint64)
        assert row_gaps(indptr, empty).shape == (0,)
        assert rows_from_gaps(indptr, empty).shape == (0,)

    def test_duplicate_neighbours_allowed(self):
        """Multigraph rows have zero gaps; they must survive."""
        indptr = np.array([0, 3])
        indices = np.array([4, 4, 4], dtype=np.uint64)
        gaps = row_gaps(indptr, indices)
        assert gaps.tolist() == [4, 0, 0]
        assert np.array_equal(rows_from_gaps(indptr, gaps), indices)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_property_roundtrip(self, data):
        nrows = data.draw(st.integers(1, 8))
        rows = [
            sorted(data.draw(st.lists(st.integers(0, 1000), max_size=20)))
            for _ in range(nrows)
        ]
        indptr = np.cumsum([0] + [len(r) for r in rows])
        indices = np.asarray([x for r in rows for x in r], dtype=np.uint64)
        gaps = row_gaps(indptr, indices)
        assert np.array_equal(rows_from_gaps(indptr, gaps), indices)
