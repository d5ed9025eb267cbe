"""EveLog and EdgeLog baselines: same answers as TCSR, different costs."""

import numpy as np
import pytest

from repro.errors import FrameError, QueryError
from repro.temporal.edgelog import EdgeLog
from repro.temporal.evelog import EveLog
from repro.temporal.events import EventList


@pytest.fixture
def stream(rng):
    n, nev, frames = 25, 500, 7
    return EventList.from_triplets(
        rng.integers(0, n, nev),
        rng.integers(0, n, nev),
        rng.integers(0, frames, nev),
        n,
    )


@pytest.fixture(params=[EveLog, EdgeLog], ids=["evelog", "edgelog"])
def log_store(request, stream):
    return request.param(stream)


class TestCorrectness:
    def test_edge_active_matches_oracle(self, stream, log_store, rng):
        for f in range(stream.num_frames):
            active = set(stream.active_keys_at(f).tolist())
            for _ in range(40):
                u = int(rng.integers(0, stream.num_nodes))
                v = int(rng.integers(0, stream.num_nodes))
                assert log_store.edge_active(u, v, f) == ((u << 32 | v) in active)

    def test_neighbors_matches_oracle(self, stream, log_store):
        for f in (0, stream.num_frames - 1):
            u_act, v_act = stream.active_edges_at(f)
            for u in range(stream.num_nodes):
                want = sorted(v_act[u_act == u].tolist())
                assert sorted(log_store.neighbors_at(u, f).tolist()) == want

    def test_vertex_without_events(self, log_store):
        # node ids are in range but may have no outgoing events
        n = log_store.num_nodes
        lonely = n - 1
        assert isinstance(log_store.edge_active(lonely, 0, 0), bool)

    def test_bounds(self, log_store):
        with pytest.raises(QueryError):
            log_store.edge_active(log_store.num_nodes, 0, 0)
        with pytest.raises(FrameError):
            log_store.edge_active(0, 0, log_store.num_frames)
        with pytest.raises(FrameError):
            log_store.neighbors_at(0, -1)


class TestStructuralProperties:
    def test_memory_positive_and_reported(self, log_store):
        assert log_store.memory_bytes() > 0
        assert "mem=" in repr(log_store)

    def test_within_frame_double_toggle(self):
        """Two toggles of the same edge in one frame: logs must count
        both (parity lands back at inactive)."""
        ev = EventList(np.array([0, 0]), np.array([1, 1]), np.array([0, 0]), 2)
        for cls in (EveLog, EdgeLog):
            store = cls(ev)
            assert not store.edge_active(0, 1, 0), cls.__name__

    def test_interval_semantics(self):
        """EdgeLog pairs toggles into [on, off) intervals."""
        ev = EventList(
            np.array([0, 0, 0]), np.array([1, 1, 1]), np.array([1, 3, 5]), 2
        )
        store = EdgeLog(ev)
        expect = {0: False, 1: True, 2: True, 3: False, 4: False, 5: True}
        for f, want in expect.items():
            assert store.edge_active(0, 1, f) == want, f
