"""The acceptance trace: one routed request across a 4x2 cluster.

ISSUE criterion: a single traced request through the replicated
cluster must produce the span chain enqueue -> coalesce/dispatch ->
shard fan-out -> worker dispatch -> kernel decode with parent links
intact, and the summed child :class:`Cost` of the request's subtree
must equal the cost the request was actually charged — i.e. what a
direct :class:`QueryEngine` run of the same key on the owning shard
store declares.
"""

import numpy as np
import pytest

from repro.csr.builder import ensure_sorted
from repro.obs import Tracer, subtree_cost, subtree_spans
from repro.parallel import SerialExecutor
from repro.parallel.cost import Cost
from repro.query import QueryEngine
from repro.serve import DONE, ManualClock, NeighborsRequest, ServerConfig, open_server
from repro.stores import open_store


def _edges(seed=7, n=64, m=500):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    src, dst = ensure_sorted(src, dst)
    return src, dst, n


def _cluster(workers=4, replicas=2, **overrides):
    src, dst, n = _edges()
    clock = ManualClock()
    config = ServerConfig(
        store_kind="packed",
        edges=(src, dst, n),
        workers=workers,
        replicas=replicas,
        cluster=True,
        obs=True,
        **overrides,
    )
    return open_server(config, clock=clock), clock


def _direct_cost(store, node):
    ex = SerialExecutor()
    ex.tracer = Tracer()  # no span open: each phase is a root span
    QueryEngine(store, ex).neighbors([node])
    total = Cost.zero()
    for span in ex.tracer.spans():
        total = total + span.cost
    return total


class TestAcceptanceTrace:
    def test_routed_request_span_chain_and_cost(self):
        router, clock = _cluster()
        slot = router.submit(NeighborsRequest(node=5))
        router.drain()
        assert slot.status == DONE

        spans = router.tracer.spans()
        by_id = {s.span_id: s for s in spans}
        named = {}
        for s in spans:
            named.setdefault(s.name, []).append(s)

        # the root: one traced router request
        (root,) = named["request"]
        assert root.layer == "router"
        assert root.parent_id is None
        assert root.ticket == slot.request.ticket

        # enqueue (queue wait in the router's coalescer) under the root
        (enq,) = named["enqueue"]
        assert enq.layer == "router"
        assert enq.parent_id == root.span_id

        # the scatter dispatch under the root
        (scatter,) = [s for s in named["dispatch"] if s.layer == "router"]
        assert scatter.parent_id == root.span_id
        assert scatter.meta["shards"] >= 1

        # shard fan-out: sub spans under the scatter
        subs = named["sub"]
        assert subs and all(s.layer == "router" for s in subs)
        assert all(s.parent_id == scatter.span_id for s in subs)
        assert all("shard" in s.meta and "worker" in s.meta for s in subs)

        # each sub runs the worker's inner dispatch, which runs kernels
        sub_ids = {s.span_id for s in subs}
        worker_dispatch = [s for s in named["dispatch"] if s.layer == "serve"]
        assert worker_dispatch
        assert all(s.parent_id in sub_ids for s in worker_dispatch)
        kernels = named["kernel:neighbors"]
        assert kernels
        dispatch_ids = {s.span_id for s in worker_dispatch}
        assert all(k.parent_id in dispatch_ids for k in kernels)
        assert all(k.layer == "query" for k in kernels)

        # parent links all resolve inside the trace
        for s in subtree_spans(spans, root.span_id):
            if s.parent_id is not None:
                assert s.parent_id in by_id

        # summed child Cost == what the owning shard's store charges
        # for the same key served directly
        shard = subs[0].meta["shard"]
        store = router.by_shard[shard][0].server.engine.store
        assert subtree_cost(spans, root.span_id) == _direct_cost(store, 5)

    def test_every_worker_shares_one_tracer(self):
        router, _ = _cluster()
        for group in router.by_shard.values():
            for worker in group:
                assert worker.server.tracer is router.tracer

    def test_inner_servers_never_open_their_own_roots(self):
        router, clock = _cluster()
        for i in range(6):
            clock.advance_to(i * 1000.0)
            router.submit(NeighborsRequest(node=i))
            router.pump(clock())
        router.drain()
        roots = [s for s in router.tracer.spans() if s.parent_id is None]
        assert all(s.name == "request" and s.layer == "router"
                   for s in roots)
        assert len(roots) == 6

    def test_hedge_wait_recorded_under_scatter(self):
        router, clock = _cluster(hedge_percentile=50, max_batch_size=1)
        for i in range(40):
            clock.advance_to(i * 2000.0)
            router.submit(NeighborsRequest(node=i % 64))
            router.pump(clock())
        router.drain()
        hedges = [s for s in router.tracer.spans() if s.name == "hedge-wait"]
        if router.cluster_stats().hedges_launched == 0:
            pytest.skip("no hedges fired for this workload")
        assert hedges
        dispatch_ids = {s.span_id for s in router.tracer.spans()
                        if s.name == "dispatch" and s.layer == "router"}
        assert all(h.parent_id in dispatch_ids for h in hedges)
        assert all(h.layer == "router" for h in hedges)

    def test_registry_snapshot_includes_cluster_source(self):
        router, clock = _cluster()
        router.submit(NeighborsRequest(node=3))
        router.drain()
        snap = router.registry.snapshot()
        assert snap["router.serve"]["completed"] == 1
        assert snap["router.cluster"]["shards"] == 2
        assert snap["router.trace"]["finished_spans"] >= 1
