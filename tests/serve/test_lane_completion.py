"""Per-lane completion: a batch's requests are resolved lane by lane and
its wait/latency samples recorded in bulk.  Nothing a client or a
snapshot can see may differ from completing them one at a time — the
figures below were recorded on the parent commit (f555a5a), which did.
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
    ServeMetrics,
    ServerConfig,
)

PARENT = {
    "block": {
        "accepted": 400, "completed": 400, "rejected": 0, "shed": 0,
        "blocked": 35, "batches": 72,
        "close_reasons": {"flush": 35, "window": 37},
        "duplicates_coalesced": 32, "queue_depth_high_watermark": 6,
        "batch_size_histogram": {1: 2, 2: 4, 3: 66},
        "wait_ns_histogram": {0: 30, 2: 2, 4: 1, 5: 5, 6: 8, 7: 20, 8: 40,
                              9: 84, 10: 191, 11: 19},
        "wait_ns_p50": 549.0, "wait_ns_p95": 1019.1999999999998,
        "wait_ns_p99": 1224.04, "latency_ns_p50": 613.5,
        "latency_ns_p95": 5000.799999999999,
        "latency_ns_p99": 5539.6799999999985,
    },
    "shed-oldest": {
        "accepted": 400, "completed": 278, "rejected": 0, "shed": 122,
        "blocked": 0, "batches": 49, "close_reasons": {"window": 49},
        "duplicates_coalesced": 24, "queue_depth_high_watermark": 6,
        "batch_size_histogram": {0: 1, 3: 48},
        "wait_ns_histogram": {0: 44, 4: 1, 5: 1, 6: 2, 7: 14, 8: 31, 9: 45,
                              10: 140},
        "wait_ns_p50": 520.0, "wait_ns_p95": 1000.0, "wait_ns_p99": 1000.0,
        "latency_ns_p50": 681.0, "latency_ns_p95": 5421.749999999998,
        "latency_ns_p99": 5858.75,
    },
    "reject": {
        "accepted": 97, "completed": 97, "rejected": 303, "shed": 0,
        "blocked": 0, "batches": 17, "close_reasons": {"window": 17},
        "duplicates_coalesced": 6, "queue_depth_high_watermark": 6,
        "batch_size_histogram": {3: 17},
        "wait_ns_histogram": {0: 10, 4: 1, 6: 1, 7: 9, 8: 10, 9: 14, 10: 52},
        "wait_ns_p50": 568.0, "wait_ns_p95": 1000.0, "wait_ns_p99": 1000.0,
        "latency_ns_p50": 1186.0, "latency_ns_p95": 15126.199999999999,
        "latency_ns_p99": 15349.6,
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
        assert max(req.enqueue_ns, req.dispatch_ns) <= req.complete_ns
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


def test_record_replies_is_record_reply_in_bulk():
    one, bulk = ServeMetrics(), ServeMetrics()
    enqueued = [0.0, 10.5, 10.5, 333.25]
    for t in enqueued:
        one.record_reply(wait_ns=400.0 - t, latency_ns=1000.75 - t)
    bulk.record_replies(enqueued, 400.0, 1000.75)
    assert bulk.snapshot() == one.snapshot()
