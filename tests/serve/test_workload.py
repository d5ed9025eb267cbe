"""Workload generation: determinism, mix, schedule, and replay."""

import numpy as np
import pytest

from repro.csr import build_csr_serial, ensure_sorted
from repro.errors import ValidationError
from repro.serve import (
    DONE,
    EdgeRequest,
    GraphQueryServer,
    ManualClock,
    NeighborsRequest,
    ServerConfig,
    replay,
    synthetic_workload,
    zipf_nodes,
)


def _keys(workload):
    return [(t, r.key) for t, r in workload]


class TestSyntheticWorkload:
    def test_deterministic_per_seed(self):
        a = synthetic_workload(200, 100, seed=5)
        b = synthetic_workload(200, 100, seed=5)
        c = synthetic_workload(200, 100, seed=6)
        assert _keys(a) == _keys(b)
        assert _keys(a) != _keys(c)

    def test_arrivals_monotone_nondecreasing(self):
        wl = synthetic_workload(500, 50, mean_interarrival_ns=700, seed=1)
        arrivals = [t for t, _ in wl]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0

    def test_zero_interarrival_all_at_origin(self):
        wl = synthetic_workload(50, 10, mean_interarrival_ns=0, seed=1)
        assert all(t == 0.0 for t, _ in wl)

    def test_edge_fraction_mix(self):
        wl = synthetic_workload(2000, 100, edge_fraction=0.5, seed=2)
        n_edge = sum(isinstance(r, EdgeRequest) for _, r in wl)
        assert 800 < n_edge < 1200
        wl = synthetic_workload(200, 100, edge_fraction=0.0, seed=2)
        assert all(isinstance(r, NeighborsRequest) for _, r in wl)

    def test_planted_edges_hit(self, rng):
        from repro.csr.builder import ensure_sorted

        n, m = 40, 400
        src, dst = ensure_sorted(rng.integers(0, n, m), rng.integers(0, n, m))
        g = build_csr_serial(src, dst, n)
        wl = synthetic_workload(600, n, edge_fraction=1.0,
                                edges=(src, dst), seed=9)
        hits = sum(g.has_edge(r.u, r.v) for _, r in wl)
        assert hits > 150  # ~half are planted, so well above random

    def test_zipf_skews_to_low_ids(self):
        nodes = zipf_nodes(5000, 1000, 1.3, np.random.default_rng(0))
        assert nodes.min() >= 0 and nodes.max() < 1000
        assert np.mean(nodes < 10) > 0.5  # celebrity mass

    def test_uniform_kind(self):
        wl = synthetic_workload(2000, 1000, kind="uniform",
                                edge_fraction=0.0, seed=3)
        nodes = np.array([r.node for _, r in wl])
        assert np.mean(nodes < 10) < 0.1

    def test_validation(self):
        with pytest.raises(ValidationError):
            synthetic_workload(10, 10, kind="bursty")
        with pytest.raises(ValidationError):
            synthetic_workload(10, 10, edge_fraction=1.5)
        with pytest.raises(ValidationError):
            zipf_nodes(5, 10, 1.0, np.random.default_rng(0))


class TestReplay:
    @pytest.fixture
    def store(self, rng):
        n, m = 60, 500
        src = np.sort(rng.integers(0, n, m))
        return build_csr_serial(*ensure_sorted(src, rng.integers(0, n, m)), n)

    def test_replay_needs_manual_clock(self, store):
        server = GraphQueryServer(store)  # wall clock
        with pytest.raises(ValidationError):
            replay(server, [])

    def test_replay_serves_everything_deterministically(self, store):
        def run():
            clock = ManualClock()
            server = GraphQueryServer(
                store, config=ServerConfig(max_batch_size=8, max_wait_ns=2_000),
                clock=clock)
            wl = synthetic_workload(300, store.num_nodes,
                                    mean_interarrival_ns=500,
                                    edge_fraction=0.3, seed=11)
            slots = replay(server, wl)
            return slots, server.snapshot()

        slots_a, snap_a = run()
        slots_b, snap_b = run()
        assert all(s.status == DONE for s in slots_a)
        assert snap_a.batches == snap_b.batches
        assert snap_a.close_reasons == snap_b.close_reasons
        assert snap_a.wait_ns_p95 == snap_b.wait_ns_p95
        assert snap_a.latency_ns_p99 == snap_b.latency_ns_p99
        for a, b in zip(slots_a, slots_b):
            assert a.request.wait_ns == b.request.wait_ns
