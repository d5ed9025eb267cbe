"""Per-lane completion: a batch's requests are resolved lane by lane and
its wait/latency samples recorded in bulk.  Nothing a client or a
snapshot can see may differ from completing them one at a time — the
figures below were first recorded on a tree (f555a5a) that did, then
re-recorded once a closed window stopped taking the requests that had
arrived after its close time (the script submits without pumping; the
earlier figures held 29, 43 and 9 negative waits under block,
shed-oldest and reject).
"""

import numpy as np
import pytest

from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.packed import BitPackedCSR
from repro.obs import ObsConfig
from repro.query import QueryEngine
from repro.serve import (
    DONE,
    EdgeRequest,
    GraphQueryServer,
    ManualClock,
    NeighborsRequest,
    ServerConfig,
)

PARENT = {
    "block": {
        "accepted": 400, "completed": 400, "rejected": 0, "shed": 0,
        "blocked": 37, "batches": 79,
        "close_reasons": {"flush": 37, "window": 42},
        "duplicates_coalesced": 29, "queue_depth_high_watermark": 6,
        "batch_size_histogram": {0: 3, 1: 1, 2: 15, 3: 60},
        "wait_ns_histogram": {4: 2, 5: 6, 6: 9, 7: 16, 8: 44, 9: 103,
                              10: 202, 11: 18},
        "wait_ns_p50": 593.5, "wait_ns_p95": 1000.2499999999998,
        "wait_ns_p99": 1207.4099999999996, "latency_ns_p50": 642.0,
        "latency_ns_p95": 5000.0, "latency_ns_p99": 5642.0,
    },
    "shed-oldest": {
        "accepted": 400, "completed": 272, "rejected": 0, "shed": 128,
        "blocked": 0, "batches": 58, "close_reasons": {"window": 58},
        "duplicates_coalesced": 15, "queue_depth_high_watermark": 6,
        "batch_size_histogram": {0: 2, 1: 1, 2: 10, 3: 45},
        "wait_ns_histogram": {4: 3, 5: 1, 6: 2, 7: 18, 8: 29, 9: 61,
                              10: 158},
        "wait_ns_p50": 622.5, "wait_ns_p95": 1000.0, "wait_ns_p99": 1000.0,
        "latency_ns_p50": 817.0, "latency_ns_p95": 5319.7,
        "latency_ns_p99": 5803.300000000001,
    },
    "reject": {
        "accepted": 94, "completed": 94, "rejected": 306, "shed": 0,
        "blocked": 0, "batches": 18, "close_reasons": {"window": 18},
        "duplicates_coalesced": 4, "queue_depth_high_watermark": 6,
        "batch_size_histogram": {2: 4, 3: 14},
        "wait_ns_histogram": {4: 1, 5: 1, 6: 1, 7: 7, 8: 8, 9: 21, 10: 55},
        "wait_ns_p50": 616.0, "wait_ns_p95": 1000.0, "wait_ns_p99": 1000.0,
        "latency_ns_p50": 9358.5, "latency_ns_p95": 15145.849999999999,
        "latency_ns_p99": 15350.05,
    },
}


def scripted_run(policy, obs=None):
    """400 mixed requests (hot keys, so lanes are shared) on a manual
    clock, against a queue small enough that the policy engages."""
    rng = np.random.default_rng(99)
    n = 64
    src, dst = ensure_sorted(rng.integers(0, n, 900), rng.integers(0, n, 900))
    store = BitPackedCSR.from_csr(build_csr_serial(src, dst, n))
    clock = ManualClock()
    server = GraphQueryServer(store, config=ServerConfig(
        cache_elements=500, max_batch_size=16, max_wait_ns=1_000.0,
        queue_capacity=6, policy=policy, obs=obs), clock=clock)
    slots = []
    for i in range(400):
        clock.advance(float(rng.integers(0, 400)))
        u, v = int(rng.integers(0, 6)), int(rng.integers(0, n))
        req = (EdgeRequest(u=u, v=v) if i % 4 == 0
               else NeighborsRequest(node=u if i % 3 else v))
        slots.append(server.submit(req))
        if i % 50 == 49:
            clock.advance(5_000.0)
            server.pump()
    server.drain()
    return store, server, slots


@pytest.mark.parametrize("policy", sorted(PARENT))
def test_snapshot_identical_to_per_request_completion(policy):
    store, server, slots = scripted_run(policy)
    snap = server.snapshot()
    assert {key: getattr(snap, key) for key in PARENT[policy]} == PARENT[policy]
    # every slot terminal, every reply the direct engine's, every stamp set
    engine = QueryEngine(store)
    assert not server._slots
    for slot in slots:
        assert slot.ready
        req = slot.request
        if slot.status != DONE:
            continue
        assert req.enqueue_ns <= req.dispatch_ns <= req.complete_ns
        if isinstance(req, EdgeRequest):
            value = slot.result()
            assert type(value) is bool
            assert value == bool(engine.has_edges([(req.u, req.v)])[0])
        else:
            assert np.array_equal(slot.result(), store.neighbors(req.node))


def test_enqueue_spans_only_for_traced_tickets():
    _, server, slots = scripted_run("block", obs=ObsConfig(sample_every=5, capacity=1 << 14))
    spans = server.tracer.spans()
    roots = {s.span_id: s for s in spans if s.name == "request"}
    waits = [s for s in spans if s.name == "enqueue"]
    assert len(roots) == 80 and len(waits) == 80
    assert {s.parent_id for s in waits} == set(roots)
    by_ticket = {slot.request.ticket: slot.request for slot in slots}
    for s in waits:
        req = by_ticket[s.ticket]
        assert (s.start_ns, s.end_ns) == (req.enqueue_ns, req.dispatch_ns)
        assert roots[s.parent_id].end_ns == req.complete_ns
    assert not server._traced

