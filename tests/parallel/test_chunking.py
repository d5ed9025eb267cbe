"""Unit and property tests for chunk partitioning."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.parallel.chunking import (
    Chunk,
    aligned_chunks,
    balance_ratio,
    chunk_bounds,
    edge_balanced_row_bounds,
    even_chunks,
)


class TestChunk:
    def test_unpacks_like_pair(self):
        start, stop = Chunk(2, 5, cid=1)
        assert (start, stop) == (2, 5)

    def test_len_and_empty(self):
        assert len(Chunk(2, 5)) == 3
        assert Chunk(5, 5).is_empty()
        assert len(Chunk(7, 3)) == 0


class TestChunkBounds:
    @given(st.integers(0, 5000), st.integers(1, 130))
    def test_partition_properties(self, n, p):
        bounds = chunk_bounds(n, p)
        assert bounds[0] == 0 and bounds[-1] == n
        sizes = np.diff(bounds)
        assert sizes.min() >= 0
        # balanced: sizes differ by at most one
        assert sizes.max() - sizes.min() <= 1
        # longer chunks come first
        assert np.all(np.diff(sizes) <= 0) or sizes.max() == sizes.min()

    def test_more_processors_than_items(self):
        bounds = chunk_bounds(2, 5)
        assert np.diff(bounds).tolist() == [1, 1, 0, 0, 0]

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            chunk_bounds(3, 0)
        with pytest.raises(ValidationError):
            chunk_bounds(-1, 2)


class TestEvenChunks:
    def test_ids_sequential(self):
        chunks = even_chunks(10, 3)
        assert [c.cid for c in chunks] == [0, 1, 2]
        assert sum(len(c) for c in chunks) == 10


class TestAlignedChunks:
    def test_never_splits_a_run(self):
        keys = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 3])
        for p in range(1, 8):
            chunks = aligned_chunks(keys, p)
            assert sum(len(c) for c in chunks) == len(keys)
            for c in chunks:
                if c.is_empty() or c.stop >= len(keys):
                    continue
                assert keys[c.stop - 1] != keys[c.stop], (p, c)

    def test_heavy_hitter_collapses_chunks(self):
        keys = np.zeros(100, dtype=np.int64)  # one giant run
        chunks = aligned_chunks(keys, 4)
        nonempty = [c for c in chunks if not c.is_empty()]
        assert len(nonempty) == 1
        assert len(nonempty[0]) == 100

    @given(
        st.lists(st.integers(0, 9), min_size=0, max_size=200),
        st.integers(1, 16),
    )
    def test_covers_exactly(self, raw, p):
        keys = np.sort(np.asarray(raw, dtype=np.int64))
        chunks = aligned_chunks(keys, p)
        assert chunks[0].start == 0
        assert chunks[-1].stop == len(keys)
        for a, b in zip(chunks, chunks[1:]):
            assert a.stop == b.start

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            aligned_chunks(np.zeros((2, 2)), 2)


class TestEdgeBalancedRowBounds:
    def test_covers_all_rows(self):
        indptr = np.array([0, 10, 10, 11, 100])
        for p in (1, 2, 3, 8):
            bounds = edge_balanced_row_bounds(indptr, p)
            assert bounds[0] == 0 and bounds[-1] == 4
            assert np.all(np.diff(bounds) >= 0)

    def test_hub_isolated(self):
        # node 0 owns 90 of 100 edges: it must get its own chunk range
        indptr = np.array([0, 90] + list(range(91, 101)))
        bounds = edge_balanced_row_bounds(indptr, 4)
        edge_counts = [
            int(indptr[bounds[i + 1]] - indptr[bounds[i]]) for i in range(4)
        ]
        assert max(edge_counts) <= 91  # hub alone, not hub + half the rest

    def test_uniform_graph_matches_even_split(self):
        indptr = np.arange(0, 101, 10)  # 10 rows x 10 edges
        bounds = edge_balanced_row_bounds(indptr, 5)
        assert bounds.tolist() == [0, 2, 4, 6, 8, 10]

    def test_empty_graph(self):
        bounds = edge_balanced_row_bounds(np.array([0]), 3)
        assert bounds.tolist() == [0, 0, 0, 0]

    def test_validation(self):
        with pytest.raises(ValidationError):
            edge_balanced_row_bounds(np.zeros((2, 2)), 2)
        with pytest.raises(ValidationError):
            edge_balanced_row_bounds(np.array([0, 5]), 0)

    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=50),
        st.integers(1, 16),
    )
    def test_property_partition(self, degrees, p):
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        bounds = edge_balanced_row_bounds(indptr, p)
        assert bounds[0] == 0
        assert bounds[-1] == len(degrees)
        assert np.all(np.diff(bounds) >= 0)


class TestBalanceRatio:
    def test_even_is_one(self):
        assert balance_ratio(even_chunks(100, 4)) == 1.0

    def test_skew_grows(self):
        keys = np.zeros(100, dtype=np.int64)
        assert balance_ratio(aligned_chunks(keys, 4)) == 4.0

    def test_empty(self):
        assert balance_ratio([]) == 1.0
