"""The router's observable behaviour, pinned to recorded figures.

A seeded :class:`ManualClock` schedule of mixed neighbour and edge
requests — hot keys, so several tickets share a lane and a lane's
tickets span shards — runs through two clusters: 4 shards x 2 replicas
with hedging at the 50th percentile and one slow replica, and 2 shards
x 2 replicas with one worker failing mid-flight.  What a client, a
snapshot or a shard worker can see is pinned to the figures recorded
on a tree (ac330db) from before the scatter became one split by shard
runs and the gather the serve loop's lane-wise ``_complete``, and
re-recorded once a closed window stopped taking the requests that
arrived after its close time (the schedule submits without pumping, so
95 tickets of each setup used to read a negative wait), and once more
when a submit that finds the queued window expired dispatches it before
queueing itself: tickets 356-367 were one size-closed batch at 241,570
ns, with ticket 367, which arrived at 241,570 ns, filling a window that
had closed at 238,590 ns (eleven waits of up to 3,040 ns on a 600 ns
window); they are now a window batch of tickets 356-366 at 238,590 ns,
and ticket 367 opens the next window (``close_reasons`` window 124 /
size 3 -> window 125 / size 2):

* every ticket's ``(status, dispatch_ns, complete_ns, reply)``;
* ``snapshot()``;
* ``cluster_stats()`` except ``per_tenant`` (it no longer counts
  requests that got no reply: ``test_tenant_ledger.py``);
* the ``(shard, nodes, edges)`` sequence each worker's ``serve`` got.

Ticket and worker sequences are pinned by digest (``repr`` of the
canonical tuples, so a float turning into a numpy scalar or an int64
key array into another dtype changes it too), the rest literally.
"""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from repro.cluster.worker import ShardWorker
from repro.csr.builder import ensure_sorted
from repro.serve import (
    DONE,
    FAILED,
    EdgeRequest,
    ManualClock,
    NeighborsRequest,
    ServerConfig,
    open_server,
)

PARENT = {
    "2x2-failover": {
        "statuses": {"done": 500}, "tickets": "f4a352184332b578f4c1",
        "snapshot": {
            "accepted": 500, "completed": 500, "rejected": 0, "shed": 0,
            "blocked": 0, "batches": 128,
            "close_reasons": {"window": 125, "size": 2, "flush": 1},
            "duplicates_coalesced": 41, "queue_depth_high_watermark": 12,
            "batch_size_histogram": {0: 30, 1: 17, 2: 31, 3: 40, 4: 10},
            "wait_ns_histogram": {0: 3, 5: 10, 6: 29, 7: 15, 8: 23, 9: 149,
                                  10: 271},
            "wait_ns_p50": 560.0, "wait_ns_p95": 600.0, "wait_ns_p99": 600.0,
            "latency_ns_p50": 6643.75, "latency_ns_p95": 58368.87499999995,
            "latency_ns_p99": 71214.75, "service_ns_total": 523718.25,
            "elapsed_s": None, "writes": 0, "write_noops": 0,
            "write_ns_p50": 0.0, "write_ns_p95": 0.0, "write_ns_p99": 0.0,
            "memtable_edges": 0, "compactions": 0, "admission_enabled": True,
        },
        "cluster_stats": {
            "shards": 2, "replicas": 2,
            "per_worker": [
                (0, 0, False, 32, 102, 136057.25, 0),
                (1, 0, True, 92, 289, 375028.0, 0),
                (2, 1, True, 29, 34, 81037.5, 0),
                (3, 1, True, 27, 39, 83709.25, 0),
            ],
            "per_shard": {0: 124, 1: 56}, "subs_dispatched": 180,
            "hedges_launched": 0, "duplicate_completions": 0, "retries": 1,
            "failed_requests": 0, "quota_rejected": 0,
        },
        "serves": {0: 32, 1: 92, 2: 29, 3: 27},
        "serves_digest": "8d1544d7471438281a91",
    },
    "4x2-hedged": {
        "statuses": {"done": 500}, "tickets": "e68383e1d9e69d987f8c",
        "snapshot": {
            "accepted": 500, "completed": 500, "rejected": 0, "shed": 0,
            "blocked": 0, "batches": 128,
            "close_reasons": {"window": 125, "size": 2, "flush": 1},
            "duplicates_coalesced": 41, "queue_depth_high_watermark": 12,
            "batch_size_histogram": {0: 30, 1: 17, 2: 31, 3: 40, 4: 10},
            "wait_ns_histogram": {0: 3, 5: 10, 6: 29, 7: 15, 8: 23, 9: 149,
                                  10: 271},
            "wait_ns_p50": 560.0, "wait_ns_p95": 600.0, "wait_ns_p99": 600.0,
            "latency_ns_p50": 68113.25, "latency_ns_p95": 126170.62499999996,
            "latency_ns_p99": 139016.5, "service_ns_total": 520751.5,
            "elapsed_s": None, "writes": 0, "write_noops": 0,
            "write_ns_p50": 0.0, "write_ns_p95": 0.0, "write_ns_p99": 0.0,
            "memtable_edges": 0, "compactions": 0, "admission_enabled": True,
        },
        "cluster_stats": {
            "shards": 4, "replicas": 2,
            "per_worker": [
                (0, 0, True, 119, 361, 490225.0, 0),
                (1, 0, True, 119, 354, 487475.0, 0),
                (2, 1, True, 17, 19, 45522.75, 2),
                (3, 1, True, 5, 6, 303320.0, 0),
                (4, 2, True, 2, 2, 5039.0, 0),
                (5, 2, True, 2, 2, 5054.75, 0),
                (6, 3, True, 37, 53, 116661.5, 0),
                (7, 3, True, 37, 52, 116656.25, 0),
            ],
            "per_shard": {0: 238, 1: 22, 2: 4, 3: 74}, "subs_dispatched": 338,
            "hedges_launched": 143, "duplicate_completions": 143,
            "retries": 0, "failed_requests": 0, "quota_rejected": 0,
        },
        "serves": {0: 119, 1: 119, 2: 17, 3: 5, 4: 2, 5: 2, 6: 37, 7: 37},
        "serves_digest": "6bd9c019c55ad103f7f8",
    },
}


def _graph(seed=5, n=96, m=1200):
    rng = np.random.default_rng(seed)
    return (*ensure_sorted(rng.integers(0, n, m), rng.integers(0, n, m)), n)


def _schedule(seed, n, count=500):
    """Seeded arrivals: bursts that close batches by size, gaps that
    close them by window, Zipf keys so hot lanes are shared."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        gap = float(rng.choice([0.0, 0.0, 40.0, 250.0, 3_000.0]))
        u = int(min(rng.zipf(1.4) - 1, n - 1))
        v = (int(rng.integers(0, n)) if rng.random() < 0.5
             else int(rng.integers(0, 4)))
        req = (NeighborsRequest(node=u) if rng.random() < 0.55
               else EdgeRequest(u=u, v=v))
        out.append((gap, req))
    return out


def record_serves(router):
    """Make every worker log what its ``serve`` received, in call order:
    ``(worker, shard, nodes, edges)`` with dtypes and shapes."""
    log = []

    class Recording(ShardWorker):
        __slots__ = ()

        def serve(self, nodes, edges, *, wall=False):
            log.append((self.worker_id, self.shard_id,
                        nodes.dtype.str, nodes.shape, nodes.tolist(),
                        edges.dtype.str, edges.shape, edges.tolist()))
            return ShardWorker.serve(self, nodes, edges, wall=wall)

    for worker in router.workers:
        worker.__class__ = Recording
    return log


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:20]


def _ticket(slot):
    req = slot.request
    if slot.status == DONE:
        reply = slot.result()
        if isinstance(reply, np.ndarray):
            reply = (reply.dtype.str, reply.tolist())
    elif slot.status == FAILED:
        reply = str(slot.error)
    else:
        reply = None
    return (req.ticket, slot.status, req.dispatch_ns, req.complete_ns, reply)


def _hedged(router, clock, i):
    if i == 0:
        router.workers[3].slow_factor = 20.0


def _failover(router, clock, i):
    if i == 260:
        victim = max(router.workers, key=lambda w: w.busy_until)
        victim.fail(clock() + 1.0)


SETUPS = {
    "4x2-hedged": (dict(workers=8, replicas=2, hedge_percentile=50.0,
                        hedge_min_samples=4), _hedged),
    "2x2-failover": (dict(workers=4, replicas=2), _failover),
}


def run_setup(name):
    """Drive *name*'s cluster through the schedule; returns the pinned
    figures."""
    knobs, event = SETUPS[name]
    src, dst, n = _graph()
    clock = ManualClock()
    router = open_server(ServerConfig(
        store_kind="packed", edges=(src, dst, n), cluster=True,
        max_batch_size=12, max_wait_ns=600.0, **knobs), clock=clock)
    serves = record_serves(router)
    slots = []
    for i, (gap, req) in enumerate(_schedule(17, n)):
        event(router, clock, i)
        clock.advance(gap)
        slots.append(router.submit(req))
        if i % 41 == 40:
            router.pump()
    router.drain()
    stats = asdict(router.cluster_stats())
    stats.pop("per_tenant")
    stats["per_worker"] = [tuple(w.values()) for w in stats["per_worker"]]
    tickets = [_ticket(s) for s in slots]
    return {
        "statuses": {status: sum(t[1] == status for t in tickets)
                     for status in sorted({t[1] for t in tickets})},
        "tickets": _digest(tickets),
        "snapshot": asdict(router.snapshot()),
        "cluster_stats": stats,
        "serves": {w.worker_id: sum(rec[0] == w.worker_id for rec in serves)
                   for w in router.workers},
        "serves_digest": _digest(serves),
    }


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_router_pinned_to_the_parent(name):
    got = run_setup(name)
    want = PARENT[name]
    for key in want:
        assert got[key] == want[key], key


def test_schedule_exercises_what_the_pin_covers():
    """Shared lanes, both kinds, hedges, a retry: the pin is not vacuous."""
    hedged, failover = PARENT["4x2-hedged"], PARENT["2x2-failover"]
    for pinned in (hedged, failover):
        snap = pinned["snapshot"]
        assert snap["duplicates_coalesced"] > 0
        assert {"size", "window"} <= set(snap["close_reasons"])
    assert hedged["cluster_stats"]["hedges_launched"] > 0
    assert hedged["cluster_stats"]["duplicate_completions"] > 0
    assert failover["cluster_stats"]["retries"] > 0

