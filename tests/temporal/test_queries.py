"""Batched temporal queries across all three temporal stores."""

import numpy as np
import pytest

from repro.parallel import SimulatedMachine
from repro.temporal.builder import build_tcsr
from repro.temporal.edgelog import EdgeLog
from repro.temporal.evelog import EveLog
from repro.temporal.events import EventList
from repro.temporal.queries import TemporalStore, batch_edge_active, batch_neighbors_at


@pytest.fixture
def stream(rng):
    n, nev, frames = 20, 300, 6
    return EventList.from_triplets(
        rng.integers(0, n, nev),
        rng.integers(0, n, nev),
        rng.integers(0, frames, nev),
        n,
    )


@pytest.fixture(params=["tcsr", "evelog", "edgelog"])
def store(request, stream):
    if request.param == "tcsr":
        return build_tcsr(stream)
    if request.param == "evelog":
        return EveLog(stream)
    return EdgeLog(stream)


class TestProtocol:
    def test_all_stores_satisfy_protocol(self, store):
        assert isinstance(store, TemporalStore)


class TestBatchedQueries:
    def test_edge_active_batch_matches_pointwise(self, stream, store, rng, executor):
        qs = [
            (
                int(rng.integers(0, stream.num_nodes)),
                int(rng.integers(0, stream.num_nodes)),
                int(rng.integers(0, stream.num_frames)),
            )
            for _ in range(40)
        ]
        got = batch_edge_active(store, qs, executor)
        for (u, v, f), r in zip(qs, got):
            assert r == store.edge_active(u, v, f)

    def test_neighbors_batch_matches_pointwise(self, stream, store, rng):
        qs = [
            (int(rng.integers(0, stream.num_nodes)), int(rng.integers(0, stream.num_frames)))
            for _ in range(30)
        ]
        got = batch_neighbors_at(store, qs, SimulatedMachine(5))
        for (u, f), row in zip(qs, got):
            assert sorted(row.tolist()) == sorted(store.neighbors_at(u, f).tolist())

    def test_empty_batches(self, store, executor):
        assert batch_edge_active(store, [], executor).shape == (0,)
        assert batch_neighbors_at(store, [], executor) == []

    def test_query_order_preserved_with_more_procs_than_queries(self, stream, store):
        qs = [(0, 0, 0), (1, 1, 0)]
        got = batch_edge_active(store, qs, SimulatedMachine(16))
        assert got[0] == store.edge_active(0, 0, 0)
        assert got[1] == store.edge_active(1, 1, 0)
