"""Frame algebra: toggles, snapshots, frame CSRs."""

import numpy as np
import pytest

from repro.errors import FrameError
from repro.temporal.events import EventList, encode_keys, sym_diff_sorted
from repro.temporal.frames import (
    csr_from_keys,
    frame_snapshots,
    frame_toggles,
    full_frame_csrs,
    snapshot_to_csr,
)


@pytest.fixture
def stream(rng):
    n, nev, frames = 40, 800, 9
    return EventList.from_triplets(
        rng.integers(0, n, nev),
        rng.integers(0, n, nev),
        rng.integers(0, frames, nev),
        n,
    )


class TestToggles:
    def test_one_per_frame(self, stream):
        toggles = frame_toggles(stream)
        assert len(toggles) == stream.num_frames

    def test_within_frame_parity(self):
        # (0,1) appears twice in frame 0 -> no toggle
        ev = EventList(np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([0, 0, 0]), 2)
        toggles = frame_toggles(ev)
        assert toggles[0].tolist() == [1 << 32]


class TestSnapshots:
    def test_cumulative_xor_matches_oracle(self, stream):
        snaps = frame_snapshots(stream)
        for f in range(stream.num_frames):
            assert snaps[f].tolist() == stream.active_keys_at(f).tolist()

    def test_snapshot_is_xor_of_toggles(self, stream):
        toggles = frame_toggles(stream)
        acc = np.zeros(0, dtype=np.uint64)
        for f, t in enumerate(toggles):
            acc = sym_diff_sorted(acc, t)
            assert acc.tolist() == frame_snapshots(stream)[f].tolist()
            if f > 2:
                break


class TestCsrFromKeys:
    def test_structure(self):
        keys = encode_keys(np.array([0, 0, 2]), np.array([1, 3, 2]))
        g = csr_from_keys(np.sort(keys), 4)
        assert g.neighbors(0).tolist() == [1, 3]
        assert g.neighbors(2).tolist() == [2]
        assert g.degree(1) == 0

    def test_empty(self):
        g = csr_from_keys(np.zeros(0, dtype=np.uint64), 3)
        assert g.num_edges == 0 and g.num_nodes == 3


class TestSnapshotToCsr:
    def test_matches_manual(self, stream):
        f = stream.num_frames - 1
        g = snapshot_to_csr(stream, f)
        u, v = stream.active_edges_at(f)
        assert g.num_edges == u.shape[0]
        for uu, vv in zip(u.tolist()[:50], v.tolist()[:50]):
            assert g.has_edge(uu, vv)

    def test_frame_bounds(self, stream):
        with pytest.raises(FrameError):
            snapshot_to_csr(stream, stream.num_frames)


class TestFullFrameCsrs:
    def test_one_csr_per_frame_with_right_contents(self, stream):
        csrs = full_frame_csrs(stream)
        assert len(csrs) == stream.num_frames
        for f in (0, stream.num_frames // 2, stream.num_frames - 1):
            assert csrs[f] == snapshot_to_csr(stream, f)

    def test_total_memory_exceeds_any_single_frame(self, stream):
        csrs = full_frame_csrs(stream)
        total = sum(c.memory_bytes() for c in csrs)
        assert total > max(c.memory_bytes() for c in csrs)
