"""The SLO load harness: the open loop in virtual time.

It must complete every request (at friendly queue capacities), report
rates and tails consistent with the server's own accounting, name each
violated SLO bound, and drive a cluster router exactly the way it
drives a monolithic server.
"""

import numpy as np
import pytest

from repro.analysis.serving import render_load_result
from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.packed import BitPackedCSR
from repro.errors import ValidationError
from repro.serve import (
    DONE,
    SLO,
    GraphQueryServer,
    LoadResult,
    ManualClock,
    ServerConfig,
    open_server,
    replay,
    run_open_loop,
    synthetic_workload,
)


@pytest.fixture
def edges(rng):
    n, m = 64, 600
    src = np.sort(rng.integers(0, n, m))
    dst = rng.integers(0, n, m)
    return (*ensure_sorted(src, dst), n)


def _server(edges, **knobs):
    src, dst, n = edges
    knobs.setdefault("max_batch_size", 16)
    knobs.setdefault("max_wait_ns", 2_000.0)
    knobs.setdefault("queue_capacity", 1 << 16)
    return open_server(
        ServerConfig(store_kind="packed", edges=(src, dst, n), **knobs),
        clock=ManualClock(),
    )


class TestOpenLoop:
    def test_completes_everything_and_reports_tails(self, edges):
        result = run_open_loop(_server(edges), n_requests=300,
                               offered_qps=1e6)
        assert isinstance(result, LoadResult)
        assert result.mode == "open-loop"
        assert result.requests == 300
        assert result.completed == 300
        assert result.rejected == result.shed == result.failed == 0
        assert result.offered_qps == 1e6
        assert result.achieved_qps > 0
        assert result.p50_ms <= result.p95_ms <= result.p99_ms
        assert result.duration_s > 0

    def test_slo_violations_are_named(self, edges):
        impossible = SLO(p99_ms=1e-9, min_qps=1e15)
        result = run_open_loop(_server(edges), n_requests=200,
                               offered_qps=1e6, slo=impossible)
        assert not result.met
        assert len(result.violations) == 2
        assert any("p99" in v for v in result.violations)
        assert any("qps" in v for v in result.violations)
        assert "p99" in render_load_result(result)

    def test_generous_slo_is_met(self, edges):
        result = run_open_loop(_server(edges), n_requests=200,
                               offered_qps=1e6,
                               slo=SLO(p99_ms=1e9, min_qps=1.0))
        assert result.met
        assert result.violations == ()

    def test_latency_bound_over_no_completions_is_violated(self, edges):
        """Every request refused: there is no p99 to be inside the bound."""
        from dataclasses import replace

        served = run_open_loop(_server(edges), n_requests=50, offered_qps=1e6)
        refused = replace(
            served, completed=0, rejected=served.requests, achieved_qps=0.0,
            p50_ms=None, p95_ms=None, p99_ms=None,
        )
        assert SLO(p99_ms=1.0).violations(refused) == (
            "p99 undefined (no completions) vs SLO 1.000 ms",
        )
        assert len(SLO(p50_ms=1.0, p95_ms=1.0, min_qps=1.0).violations(refused)) == 3
        assert SLO().violations(refused) == ()  # nothing declared, nothing broken

    def test_same_seed_same_result(self, edges):
        a = run_open_loop(_server(edges), n_requests=200, offered_qps=2e6,
                          seed=42)
        b = run_open_loop(_server(edges), n_requests=200, offered_qps=2e6,
                          seed=42)
        assert a == b  # virtual time makes the whole run deterministic

    def test_drives_cluster_router(self, edges):
        router = _server(edges, workers=4, replicas=2)
        result = run_open_loop(router, n_requests=400, offered_qps=5e6)
        assert result.completed == 400
        assert router.snapshot().completed == 400
        stats = router.cluster_stats()
        assert sum(w.requests_served for w in stats.per_worker) > 0

    @pytest.mark.parametrize("layout", [{}, {"workers": 4, "replicas": 2}],
                             ids=["monolith", "router"])
    def test_is_replay_of_its_schedule(self, edges, layout):
        """One driver: the load harness's slots and latencies are
        replay's on the same seeded schedule."""
        n = edges[2]
        harness = _server(edges, **layout)
        result = run_open_loop(harness, n_requests=300, offered_qps=4e6, seed=9)
        replayed = _server(edges, **layout)
        slots = replay(replayed, synthetic_workload(
            300, n, mean_interarrival_ns=1e9 / 4e6, seed=9))
        lat = np.array([s.request.latency_ns for s in slots])
        assert [s.status for s in slots].count(DONE) == result.completed == 300
        assert list(np.percentile(lat, [50.0, 95.0, 99.0]) / 1e6) == [
            result.p50_ms, result.p95_ms, result.p99_ms]
        assert max(s.request.complete_ns for s in slots) / 1e9 == result.duration_s
        a, b = harness.snapshot(), replayed.snapshot()
        assert (a.batches, a.close_reasons, a.latency_ns_p99) == (
            b.batches, b.close_reasons, b.latency_ns_p99)

    def test_requires_manual_clock(self, edges):
        src, dst, n = edges
        store = BitPackedCSR.from_csr(build_csr_serial(src, dst, n))
        wall_server = GraphQueryServer(store)  # production wall clock
        with pytest.raises(ValidationError, match="ManualClock"):
            run_open_loop(wall_server, n_requests=10)
