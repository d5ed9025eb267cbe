"""TemporalCSR container queries against the brute-force oracle."""

import numpy as np
import pytest

from repro.errors import FrameError, QueryError, ValidationError
from repro.parallel import SimulatedMachine
from repro.temporal.builder import build_tcsr
from repro.temporal.events import EventList
from repro.temporal.frames import full_frame_csrs


@pytest.fixture
def stream(rng):
    n, nev, frames = 30, 600, 8
    return EventList.from_triplets(
        rng.integers(0, n, nev),
        rng.integers(0, n, nev),
        rng.integers(0, frames, nev),
        n,
    )


@pytest.fixture
def tcsr(stream):
    return build_tcsr(stream, SimulatedMachine(4))


class TestEdgeActive:
    def test_matches_oracle_everywhere(self, stream, tcsr, rng):
        for f in range(stream.num_frames):
            active = set(stream.active_keys_at(f).tolist())
            for _ in range(40):
                u = int(rng.integers(0, stream.num_nodes))
                v = int(rng.integers(0, stream.num_nodes))
                assert tcsr.edge_active(u, v, f) == ((u << 32 | v) in active)

    def test_toggle_deactivates(self):
        ev = EventList(np.array([0, 0]), np.array([1, 1]), np.array([0, 1]), 2)
        tcsr = build_tcsr(ev)
        assert tcsr.edge_active(0, 1, 0)
        assert not tcsr.edge_active(0, 1, 1)

    def test_bounds(self, tcsr):
        with pytest.raises(FrameError):
            tcsr.edge_active(0, 1, tcsr.num_frames)
        with pytest.raises(QueryError):
            tcsr.edge_active(99, 0, 0)


class TestNeighborsAt:
    def test_matches_oracle(self, stream, tcsr):
        for f in (0, 3, stream.num_frames - 1):
            u_act, v_act = stream.active_edges_at(f)
            for u in range(stream.num_nodes):
                want = sorted(v_act[u_act == u].tolist())
                assert tcsr.neighbors_at(u, f).tolist() == want

    def test_bounds(self, tcsr):
        with pytest.raises(QueryError):
            tcsr.neighbors_at(-1, 0)


class TestSnapshotAndToggles:
    def test_snapshot_frame_zero_is_base(self, tcsr):
        assert tcsr.snapshot(0) == tcsr.base.to_csr()

    def test_toggles_frame_zero_rejected(self, tcsr):
        with pytest.raises(FrameError, match="snapshot"):
            tcsr.toggles(0)

    def test_delta_edge_counts(self, tcsr):
        counts = tcsr.delta_edge_counts()
        assert counts.shape == (tcsr.num_frames - 1,)
        for f in range(1, tcsr.num_frames):
            assert counts[f - 1] == tcsr.deltas[f - 1].num_edges


class TestHistory:
    def test_history_matches_pointwise(self, stream, tcsr, rng):
        for _ in range(20):
            u = int(rng.integers(0, stream.num_nodes))
            v = int(rng.integers(0, stream.num_nodes))
            history = tcsr.edge_history(u, v)
            assert history.shape == (tcsr.num_frames,)
            for f in range(tcsr.num_frames):
                assert history[f] == tcsr.edge_active(u, v, f), (u, v, f)

    def test_lifetime(self, tcsr, stream, rng):
        u = int(stream.u[0])
        v = int(stream.v[0])
        assert tcsr.edge_lifetime(u, v) == int(tcsr.edge_history(u, v).sum())

    def test_churn_rate(self, tcsr):
        rate = tcsr.churn_rate()
        assert rate == pytest.approx(float(tcsr.delta_edge_counts().mean()))

    def test_history_bounds(self, tcsr):
        with pytest.raises(QueryError):
            tcsr.edge_history(tcsr.num_nodes, 0)


class TestMemory:
    def test_differential_smaller_than_full_frames(self, stream, tcsr):
        """Section IV's motivation: storing diffs beats full per-frame
        CSRs whenever churn is below 100%."""
        full = sum(c.memory_bytes() for c in full_frame_csrs(stream))
        assert tcsr.memory_bytes() < full

    def test_node_count_consistency_enforced(self, tcsr):
        with pytest.raises(ValidationError):
            from repro.temporal.tcsr import TemporalCSR

            TemporalCSR(tcsr.num_nodes + 5, tcsr.base, tcsr.deltas)
