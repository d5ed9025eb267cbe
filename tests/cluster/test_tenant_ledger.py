"""Per-tenant completions count replies, and nothing else.

``ClusterStats.per_tenant`` — rendered as "per-tenant completions" —
counts a request when the reply path (``ServeLoop._complete``) resolves
it; a request refused by its quota or the queue, shed from the queue,
or failed with its sub leaves the ledger without counting.
"""

import numpy as np

from repro.csr.builder import ensure_sorted
from repro.serve import (
    DONE,
    FAILED,
    REJECTED,
    SHED,
    ManualClock,
    NeighborsRequest,
    ServerConfig,
    open_server,
)


def test_per_tenant_counts_only_replies():
    rng = np.random.default_rng(5)
    n = 96
    src, dst = ensure_sorted(rng.integers(0, n, 1200), rng.integers(0, n, 1200))
    clock = ManualClock()
    router = open_server(ServerConfig(
        store_kind="packed", edges=(src, dst, n), workers=2, replicas=1,
        tenant_quotas={"free": 2}, policy="shed-oldest", queue_capacity=2,
        max_batch_size=4, max_wait_ns=500.0), clock=clock)
    (down,) = router.by_shard[1]
    down.fail()
    slots = []
    for i in range(120):
        clock.advance(float(rng.choice([0.0, 100.0, 700.0])))
        req = NeighborsRequest(node=int(rng.integers(0, n)),
                               tenant=("free", "paid", "paid")[i % 3])
        slots.append(router.submit(req))
    router.drain()
    assert {DONE, FAILED, SHED, REJECTED} <= {s.status for s in slots}
    done = {}
    for slot in slots:
        if slot.status == DONE:
            tenant = slot.request.tenant
            done[tenant] = done.get(tenant, 0) + 1
    assert router.cluster_stats().per_tenant == done
    assert not router._tenants.inflight
