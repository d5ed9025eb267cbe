"""Event streams, edge keys, parity semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameError, NotSortedError, ValidationError
from repro.temporal.events import (
    EventList,
    decode_keys,
    encode_keys,
    parity_filter,
    sym_diff_sorted,
)


class TestKeys:
    def test_roundtrip(self, rng):
        u = rng.integers(0, 2**31, 1000)
        v = rng.integers(0, 2**31, 1000)
        ku, kv = decode_keys(encode_keys(u, v))
        assert np.array_equal(ku, u) and np.array_equal(kv, v)

    def test_sorts_like_pairs(self, rng):
        u = rng.integers(0, 100, 500)
        v = rng.integers(0, 100, 500)
        keys = encode_keys(u, v)
        order_keys = np.argsort(keys, kind="stable")
        order_pairs = np.lexsort((v, u))
        assert np.array_equal(
            keys[order_keys], keys[order_pairs]
        )

    def test_rejects_huge_ids(self):
        with pytest.raises(ValidationError):
            encode_keys(np.array([2**32]), np.array([0]))


class TestParityFilter:
    def test_odd_survives_even_drops(self):
        keys = np.array([5, 5, 7, 7, 7, 9], dtype=np.uint64)
        assert parity_filter(keys).tolist() == [7, 9]

    def test_empty(self):
        assert parity_filter(np.zeros(0, dtype=np.uint64)).shape == (0,)

    @given(st.lists(st.integers(0, 30), max_size=200))
    def test_property_matches_counting(self, raw):
        keys = np.asarray(raw, dtype=np.uint64)
        want = sorted(k for k in set(raw) if raw.count(k) % 2 == 1)
        assert parity_filter(keys).tolist() == want


class TestSymDiff:
    def test_basic(self):
        a = np.array([1, 3, 5], dtype=np.uint64)
        b = np.array([3, 4], dtype=np.uint64)
        assert sym_diff_sorted(a, b).tolist() == [1, 4, 5]

    def test_identity_and_self_inverse(self, rng):
        a = np.unique(rng.integers(0, 1000, 300).astype(np.uint64))
        empty = np.zeros(0, dtype=np.uint64)
        assert sym_diff_sorted(a, empty).tolist() == a.tolist()
        assert sym_diff_sorted(empty, a).tolist() == a.tolist()
        assert sym_diff_sorted(a, a).shape == (0,)

    @given(
        st.sets(st.integers(0, 50)),
        st.sets(st.integers(0, 50)),
    )
    def test_property_matches_set_xor(self, sa, sb):
        a = np.asarray(sorted(sa), dtype=np.uint64)
        b = np.asarray(sorted(sb), dtype=np.uint64)
        assert sym_diff_sorted(a, b).tolist() == sorted(sa ^ sb)


class TestEventList:
    def test_from_unsorted_orders_by_t_u_v(self):
        ev = EventList.from_triplets([1, 0, 2], [1, 2, 0], [2, 0, 2], 3)
        assert ev.t.tolist() == [0, 2, 2]
        assert ev.u.tolist() == [0, 1, 2]

    def test_rejects_unsorted_times(self):
        with pytest.raises(NotSortedError):
            EventList(np.array([0, 0]), np.array([1, 1]), np.array([1, 0]), 2)

    def test_rejects_out_of_range_nodes(self):
        with pytest.raises(ValidationError):
            EventList(np.array([5]), np.array([0]), np.array([0]), 3)

    def test_rejects_negative_frames(self):
        with pytest.raises(ValidationError):
            EventList(np.array([0]), np.array([0]), np.array([-1]), 2)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError):
            EventList(np.array([0]), np.array([0, 1]), np.array([0]), 2)

    def test_num_frames(self):
        ev = EventList(np.array([0]), np.array([1]), np.array([4]), 2)
        assert ev.num_frames == 5
        empty = EventList(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64), 2)
        assert empty.num_frames == 0

    def test_frame_offsets_and_slices(self):
        ev = EventList(
            np.array([0, 1, 0, 1]),
            np.array([1, 0, 1, 0]),
            np.array([0, 0, 2, 2]),
            2,
        )
        assert ev.frame_offsets().tolist() == [0, 2, 2, 4]
        u, v = ev.frame_slice(0)
        assert u.tolist() == [0, 1]
        u, v = ev.frame_slice(1)
        assert u.size == 0
        with pytest.raises(FrameError):
            ev.frame_slice(3)

    def test_active_keys_parity(self):
        # edge (0,1) toggled at frames 0 and 2; (1,0) only at 1
        ev = EventList(
            np.array([0, 1, 0]),
            np.array([1, 0, 1]),
            np.array([0, 1, 2]),
            2,
        )
        assert ev.active_keys_at(0).tolist() == [1]  # (0,1) active
        assert sorted(ev.active_keys_at(1).tolist()) == [1, 1 << 32]
        assert ev.active_keys_at(2).tolist() == [1 << 32]  # (0,1) off again

    def test_active_edges_decode(self):
        ev = EventList(np.array([3]), np.array([4]), np.array([0]), 5)
        u, v = ev.active_edges_at(0)
        assert u.tolist() == [3] and v.tolist() == [4]
