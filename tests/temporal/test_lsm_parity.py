"""Temporal logs vs LsmStore on one edge stream (ISSUE 7 satellite).

The temporal baselines treat events as *toggles*: an edge is active at
frame *f* iff it toggled an odd number of times at ``t <= f``.  An
:class:`LsmStore` replaying the same stream as checked writes —
``delete if present else insert`` — must land in exactly that state,
tying the mutable serving store to the paper's temporal semantics.
"""

import numpy as np
import pytest

from repro.lsm import build_lsm_store
from repro.temporal.edgelog import EdgeLog
from repro.temporal.evelog import EveLog
from repro.temporal.events import EventList


@pytest.fixture
def stream(rng):
    n, nev, frames = 30, 600, 6
    return EventList.from_triplets(
        rng.integers(0, n, nev),
        rng.integers(0, n, nev),
        rng.integers(0, frames, nev),
        n,
    )


def _toggle(store, u, v):
    if store.has_edge(u, v):
        assert store.delete_edge(u, v)
    else:
        assert store.insert_edge(u, v)


@pytest.mark.parametrize("log_cls", [EveLog, EdgeLog],
                         ids=["evelog", "edgelog"])
def test_lsm_replay_matches_temporal_log(stream, log_cls):
    log = log_cls(stream)
    store = build_lsm_store([], [], stream.num_nodes, compact_watermark=200)
    applied = 0
    for f in range(stream.num_frames):
        in_frame = stream.t == f
        # EventList is sorted by (t, u, v); order within a frame is
        # irrelevant for parity but keep it for determinism
        for u, v in zip(stream.u[in_frame].tolist(),
                        stream.v[in_frame].tolist()):
            _toggle(store, u, v)
            applied += 1
            store.maybe_compact()
        for u in range(stream.num_nodes):
            want = np.sort(log.neighbors_at(u, f))
            assert store.neighbors(u).tolist() == want.tolist(), (
                f"row {u} diverged at frame {f}"
            )
    assert applied == len(stream)
    assert store.stats().compactions >= 1, "watermark never tripped"


def test_lsm_point_queries_match_both_logs(stream, rng):
    eve, edge = EveLog(stream), EdgeLog(stream)
    store = build_lsm_store([], [], stream.num_nodes)
    f = stream.num_frames - 1
    upto = stream.t <= f
    for u, v in zip(stream.u[upto].tolist(), stream.v[upto].tolist()):
        _toggle(store, u, v)
    for _ in range(150):
        u = int(rng.integers(0, stream.num_nodes))
        v = int(rng.integers(0, stream.num_nodes))
        want = eve.edge_active(u, v, f)
        assert edge.edge_active(u, v, f) == want
        assert store.has_edge(u, v) == want


def test_final_frame_replay_equals_compacted_store(stream):
    """Compaction preserves the replayed temporal state bit-exactly."""
    edge = EdgeLog(stream)
    store = build_lsm_store([], [], stream.num_nodes)
    for u, v in zip(stream.u.tolist(), stream.v.tolist()):
        _toggle(store, u, v)
    f = stream.num_frames - 1
    store.compact()
    assert len(store.memtable) == 0
    for u in range(stream.num_nodes):
        assert store.neighbors(u).tolist() == np.sort(
            edge.neighbors_at(u, f)
        ).tolist()
