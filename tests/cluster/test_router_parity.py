"""Property tests: routed serving is bit-exact, exactly-once, and fails fast.

The cluster router and the monolithic :class:`GraphQueryServer` are one
front door (:class:`~repro.serve.loop.ServeLoop`) and must be
observationally identical for completed requests: for random request
interleavings over every shard store kind × worker/replica layout,
every routed reply equals a direct per-request :class:`QueryEngine`
call on an unsharded store of the same kind.  On top of parity, the
router's three tail mechanisms get their own guarantees: hedging never
double-resolves a slot (losing duplicates are dropped and counted),
a replica failure mid-flight is retried on a sibling, and when every
replica of a shard is down the affected tickets fail with a one-line
:class:`ClusterError` instead of hanging.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.csr.builder import ensure_sorted
from repro.errors import ClusterError, ValidationError
from repro.query import QueryEngine
from repro.cluster import Router, extract_edges
from repro.datasets import rmat_edges
from repro.parallel import SimulatedMachine
from repro.serve import (
    DONE,
    FAILED,
    REJECTED,
    SHED,
    AnalyticsRequest,
    EdgeRequest,
    ManualClock,
    NeighborsRequest,
    ReadRequest,
    ServerConfig,
    WriteRequest,
    open_server,
)
from repro.stores import open_store

#: Store kinds each shard replica can serve (sharded via open_store).
SHARD_KINDS = ["csr", "packed", "gap", "adjlist", "edgelist"]

#: (workers, replicas) layouts: monolithic-on-router, sharded,
#: replicated single shard, and sharded+replicated.
LAYOUTS = [(1, 1), (2, 1), (2, 2), (4, 2)]

#: Every way into the one front door: the monolithic server (``None``),
#: a 1x1 router, and 2 shards x 2 replicas.
FRONTS = [None, (1, 1), (4, 2)]
FRONT_IDS = ["monolith", "router-1x1", "router-2x2"]

#: Simulated service time of the full mixed sub-batch of
#: ``TestShardWorkerServe`` on ``_dense_edges()``, measured on the
#: per-key worker path this kernel step replaced (PR 18).
PINNED_SERVICE_NS = 5247.0


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 20))
    m = draw(st.integers(0, 60))
    src = np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.int64
    )
    dst = np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)), dtype=np.int64
    )
    src, dst = ensure_sorted(src, dst)
    return src, dst, n


@st.composite
def request_streams(draw, n):
    """A random interleaving of neighbour and edge requests with gaps."""
    k = draw(st.integers(0, 40))
    stream = []
    t = 0.0
    for _ in range(k):
        t += draw(st.integers(0, 300))
        if draw(st.booleans()):
            stream.append((t, NeighborsRequest(node=draw(st.integers(0, n - 1)))))
        else:
            stream.append(
                (t, EdgeRequest(u=draw(st.integers(0, n - 1)),
                                v=draw(st.integers(0, n - 1))))
            )
    return stream


def _assert_reply_correct(slot, engine):
    req = slot.request
    if isinstance(req, NeighborsRequest):
        want = engine.neighbors([req.node])[0]
        got = slot.result()
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    else:
        assert slot.result() == bool(engine.has_edges([(req.u, req.v)])[0])


def _cluster(src, dst, n, *, workers, replicas, kind="packed", **overrides):
    return _front(src, dst, n, (workers, replicas), kind=kind, **overrides)


def _front(src, dst, n, layout, *, kind="packed", **overrides):
    """The front door for *layout*: a router, or (``None``) the
    monolithic server — same config otherwise, same clock type."""
    clock = ManualClock()
    if layout is not None:
        overrides.update(workers=layout[0], replicas=layout[1], cluster=True)
    config = ServerConfig(store_kind=kind, edges=(src, dst, n), **overrides)
    return open_server(config, clock=clock), clock


def _dense_edges(seed=7, n=40, m=300):
    rng = np.random.default_rng(seed)
    src = np.sort(rng.integers(0, n, m))
    dst = rng.integers(0, n, m)
    src, dst = ensure_sorted(src, dst)
    return src, dst, n


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), edges=edge_lists())
@pytest.mark.parametrize("workers,replicas", LAYOUTS,
                         ids=[f"{w}w-{r}r" for w, r in LAYOUTS])
def test_routed_replies_bit_exact(workers, replicas, data, edges):
    """Scatter-gather across any layout equals the monolithic engine."""
    src, dst, n = edges
    kind = data.draw(st.sampled_from(SHARD_KINDS))
    engine = QueryEngine(open_store(kind, src, dst, n))
    router, clock = _cluster(
        src, dst, n,
        workers=workers, replicas=replicas, kind=kind,
        max_batch_size=data.draw(st.integers(1, 8)),
        max_wait_ns=float(data.draw(st.integers(0, 500))),
        queue_capacity=1 << 16,
    )
    slots = []
    for arrival, req in data.draw(request_streams(n)):
        clock.advance_to(arrival)
        router.pump(clock())
        slots.append(router.submit(req))
    router.drain()
    for slot in slots:
        assert slot.status == DONE
        _assert_reply_correct(slot, engine)


def _check_exactly_once(layout, policy, data, edges):
    src, dst, n = edges
    engine = QueryEngine(open_store("packed", src, dst, n))
    front, clock = _front(
        src, dst, n, layout,
        max_batch_size=data.draw(st.integers(1, 6)),
        max_wait_ns=float(data.draw(st.integers(0, 1000))),
        queue_capacity=data.draw(st.integers(1, 6)),
        policy=policy,
    )
    slots = []
    for arrival, req in data.draw(request_streams(n)):
        clock.advance_to(arrival)
        slots.append(front.submit(req))
    front.drain()

    # ReplySlot._resolve raises on double resolution, so reaching a
    # terminal state here proves exactly-once delivery
    assert all(s.ready for s in slots)
    statuses = [s.status for s in slots]
    snap = front.snapshot()
    assert statuses.count(DONE) == snap.completed
    assert statuses.count(REJECTED) == snap.rejected
    assert statuses.count(SHED) == snap.shed
    assert statuses.count(FAILED) == 0
    assert len(slots) == snap.accepted + snap.rejected
    assert not front._slots and not front._traced
    if isinstance(front, Router):
        stats = front.cluster_stats()
        assert stats.failed_requests == 0
        assert sum(stats.per_shard.values()) == stats.subs_dispatched
    for slot in slots:
        if slot.status == DONE:
            _assert_reply_correct(slot, engine)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), edges=edge_lists())
@pytest.mark.parametrize("policy", ["reject", "shed-oldest", "block"])
def test_routed_tickets_resolved_exactly_once(policy, data, edges):
    """Every routed ticket ends in exactly one terminal state, with the
    router's snapshot and cluster counters agreeing with the slots."""
    _check_exactly_once((2, 1), policy, data, edges)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), edges=edge_lists())
@pytest.mark.parametrize("policy", ["reject", "shed-oldest", "block"])
@pytest.mark.parametrize("layout", FRONTS, ids=FRONT_IDS)
def test_front_door_tickets_resolved_exactly_once(layout, policy, data, edges):
    """The same property through every entry to the one front door."""
    _check_exactly_once(layout, policy, data, edges)


class TestFailureInjection:
    """Replica failure: retries when a sibling is up, fast one-line
    failure when the whole replica set is down — never a hung slot."""

    def test_retry_on_replica_failure_mid_flight(self):
        src, dst, n = _dense_edges()
        engine = QueryEngine(open_store("packed", src, dst, n))
        router, clock = _cluster(src, dst, n, workers=2, replicas=2,
                                 max_batch_size=16, max_wait_ns=100.0)
        rng = np.random.default_rng(11)
        slots = [router.submit(NeighborsRequest(node=int(u)))
                 for u in rng.integers(0, n, 48)]
        # completions are in flight; kill the busiest worker just after
        # "now", so its landed-in-the-future replies are lost
        victim = max(router.workers, key=lambda w: w.busy_until)
        victim.fail(clock() + 1.0)
        router.drain()
        assert router.retries >= 1
        for slot in slots:
            assert slot.status == DONE
            _assert_reply_correct(slot, engine)

    def test_all_replicas_down_fails_with_one_line_cluster_error(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(src, dst, n, workers=2, replicas=2,
                                 max_batch_size=8, max_wait_ns=50.0)
        for worker in router.workers:
            worker.fail()
        slots = [router.submit(NeighborsRequest(node=i)) for i in range(20)]
        router.drain()  # must terminate: no hang on a dead replica set
        stats = router.cluster_stats()
        assert stats.failed_requests == len(slots)
        for slot in slots:
            assert slot.status == FAILED
            with pytest.raises(ClusterError, match=r"shard 0: all 2 replicas down"):
                slot.result()
            assert "\n" not in str(slot.error)
            assert "attempts" in str(slot.error)

    def test_failure_after_dispatch_names_last_worker(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(src, dst, n, workers=2, replicas=2,
                                 max_batch_size=4, max_wait_ns=0.0)
        slot = router.submit(NeighborsRequest(node=1))
        # the sub was dispatched on submit (zero-wait window); now the
        # whole replica set dies before the completion lands
        for worker in router.workers:
            worker.fail(clock() + 1.0)
        router.drain()
        assert slot.status == FAILED
        assert "last worker" in str(slot.error)
        assert router.retries >= 1

    def test_recovered_worker_rejoins_selection(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(src, dst, n, workers=2, replicas=2,
                                 max_batch_size=4, max_wait_ns=0.0)
        router.workers[0].fail()
        a = router.submit(NeighborsRequest(node=0))
        router.drain()
        router.workers[0].recover()
        b = router.submit(NeighborsRequest(node=0))
        router.drain()
        assert a.status == DONE and b.status == DONE
        assert router.cluster_stats().per_worker[0].alive


class TestHedging:
    """Straggler hedging: duplicates dropped and counted, replies
    exactly-once, results still bit-exact."""

    def _hedged_router(self, src, dst, n):
        router, clock = _cluster(
            src, dst, n,
            workers=2, replicas=2,
            max_batch_size=4, max_wait_ns=0.0,
            hedge_percentile=50.0, hedge_min_samples=1,
        )
        return router, clock

    def test_hedged_duplicates_dropped_and_counted(self):
        src, dst, n = _dense_edges()
        engine = QueryEngine(open_store("packed", src, dst, n))
        router, clock = self._hedged_router(src, dst, n)
        # warm the service-time sample window with both replicas fast,
        # so the hedge deadline reflects healthy latencies...
        slots = []
        rng = np.random.default_rng(3)
        for u in rng.integers(0, n, 10):
            clock.advance(50.0)
            router.pump(clock())
            slots.append(router.submit(NeighborsRequest(node=int(u))))
        router.drain()
        # ...then inject the straggler: subs landing on it would finish
        # far past the deadline, so they get hedged to the fast sibling
        router.workers[1].slow_factor = 100.0
        for u in rng.integers(0, n, 40):
            clock.advance(50.0)
            router.pump(clock())
            slots.append(router.submit(NeighborsRequest(node=int(u))))
        router.drain()
        assert router.hedges_launched >= 1
        # no failures here, so every hedge produces exactly one losing
        # duplicate completion — dropped, never double-resolved
        assert router.duplicate_completions == router.hedges_launched
        assert sum(w.hedge_wins for w in router.workers) >= 1
        snap = router.snapshot()
        assert snap.completed == len(slots)
        for slot in slots:
            assert slot.status == DONE
            _assert_reply_correct(slot, engine)

    def test_hedging_waits_for_warmup_samples(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(
            src, dst, n,
            workers=2, replicas=2,
            max_batch_size=4, max_wait_ns=0.0,
            hedge_percentile=50.0, hedge_min_samples=10_000,
        )
        router.workers[1].slow_factor = 100.0
        for u in range(30):
            clock.advance(50.0)
            router.submit(NeighborsRequest(node=u % n))
        router.drain()
        assert router.hedges_launched == 0


@pytest.mark.parametrize("layout", FRONTS, ids=FRONT_IDS)
class TestFrontDoorSurface:
    """What ``submit`` / ``submit_job`` refuse is decided once, in the
    shared front door — and a refused request keeps no ticket."""

    def _front(self, layout, **overrides):
        return _front(*_dense_edges(), layout, **overrides)[0]

    def test_double_submit_rejected_on_both_entries(self, layout):
        front = self._front(layout)
        req = NeighborsRequest(node=0)
        front.submit(req)
        with pytest.raises(ValidationError, match="already submitted"):
            front.submit(req)
        job = AnalyticsRequest(algorithm="bfs", params={"source": 0})
        front.submit_job(job)
        with pytest.raises(ValidationError, match="already submitted"):
            front.submit_job(job)
        front.drain()
        assert front.active_jobs == 0

    def test_analytics_via_submit_rejected(self, layout):
        front = self._front(layout)
        req = AnalyticsRequest(algorithm="bfs")
        with pytest.raises(ValidationError, match="submit_job"):
            front.submit(req)
        assert req.ticket < 0

    def test_point_request_via_submit_job_rejected(self, layout):
        front = self._front(layout)
        req = NeighborsRequest(node=0)
        with pytest.raises(ValidationError, match="AnalyticsRequest"):
            front.submit_job(req)
        assert req.ticket < 0 and front.active_jobs == 0

    def test_unsupported_request_types_rejected(self, layout):
        front = self._front(layout)
        for bad in (ReadRequest(), object()):
            with pytest.raises(ValidationError, match="unsupported"):
                front.submit(bad)

    def test_refused_write_takes_no_ticket_and_no_root(self, layout):
        # a packed store is read-only behind either front door
        front = self._front(layout, obs=True)
        req = WriteRequest(op="insert", u=0, v=1)
        with pytest.raises(ValidationError, match="writes|read-only"):
            front.submit(req)
        assert req.ticket < 0
        assert not front._traced and front.tracer.spans() == []

    def test_num_nodes_is_the_served_id_space(self, layout):
        assert self._front(layout).num_nodes == _dense_edges()[2]


class TestShardWorkerServe:
    """``ShardWorker.serve`` is the kernel step on the router's arrays."""

    def test_full_mixed_sub_is_one_kernel_step(self):
        """A sub of exactly ``max_batch_size`` keys, nodes and edges
        mixed — where a per-key inner front door would have closed its
        batch by size mid-submit — is still one kernel call: replies
        bit-exact to ``QueryEngine``, simulated service time the value
        pinned from the per-key implementation on this graph."""
        src, dst, n = _dense_edges()
        batch = 16
        router, _ = _cluster(src, dst, n, workers=1, replicas=1,
                             max_batch_size=batch,
                             executor=SimulatedMachine(1))
        (worker,) = router.workers
        nodes = np.arange(10, dtype=np.int64)
        edges = np.stack([np.arange(6), (np.arange(6) * 7 + 3) % n], 1)
        assert len(nodes) + len(edges) == batch
        rows, exists, service_ns = worker.serve(nodes, edges)
        engine = QueryEngine(open_store("packed", src, dst, n))
        want = engine.neighbors(nodes)
        assert len(rows) == len(want)
        for got, row in zip(rows, want):
            assert got.dtype == row.dtype and np.array_equal(got, row)
        assert exists == engine.has_edges(edges).tolist()
        assert all(type(flag) is bool for flag in exists)
        assert service_ns == PINNED_SERVICE_NS
        assert (worker.subs_served, worker.requests_served) == (1, batch)
        assert worker.busy_ns == service_ns
        # no front door ran: nothing was ticketed, queued or counted
        assert worker.server._next_ticket == 0
        assert worker.server.snapshot().batches == 0


class TestRouterSurface:
    """Non-property behaviours of the router object itself."""

    def test_cluster_serving_is_read_only(self):
        src, dst, n = _dense_edges()
        router, _ = _cluster(src, dst, n, workers=2, replicas=1)
        with pytest.raises(ValidationError):
            router.submit(WriteRequest(op="insert", u=0, v=1))

    def test_double_submit_rejected(self):
        src, dst, n = _dense_edges()
        router, _ = _cluster(src, dst, n, workers=2, replicas=1)
        req = NeighborsRequest(node=0)
        router.submit(req)
        with pytest.raises(ValidationError):
            router.submit(req)

    def test_tenant_quota_rejects_excess_inflight(self):
        src, dst, n = _dense_edges()
        router, _ = _cluster(src, dst, n, workers=2, replicas=1,
                             max_batch_size=64, max_wait_ns=1e12,
                             tenant_quotas={"free": 1})
        a = router.submit(NeighborsRequest(node=1, tenant="free"))
        b = router.submit(NeighborsRequest(node=2, tenant="free"))
        c = router.submit(NeighborsRequest(node=3, tenant="paid"))
        assert b.status == REJECTED
        router.drain()
        assert a.status == DONE and c.status == DONE
        stats = router.cluster_stats()
        assert stats.quota_rejected == 1
        assert stats.per_tenant == {"free": 1, "paid": 1}

    def test_next_wakeup_tracks_window_then_events(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(src, dst, n, workers=2, replicas=1,
                                 max_batch_size=64, max_wait_ns=500.0)
        assert router.next_wakeup_ns() is None
        router.submit(NeighborsRequest(node=0))
        assert router.next_wakeup_ns() == 500.0  # oldest request's window
        clock.advance_to(500.0)
        router.pump(clock())
        wake = router.next_wakeup_ns()
        assert wake is not None and wake > 500.0  # in-flight completion
        router.drain()
        assert router.next_wakeup_ns() is None

    def test_per_worker_stats_cover_all_workers(self):
        src, dst, n = _dense_edges()
        router, clock = _cluster(src, dst, n, workers=4, replicas=2,
                                 max_batch_size=8, max_wait_ns=100.0)
        for u in range(60):
            clock.advance(20.0)
            router.pump(clock())
            router.submit(NeighborsRequest(node=u % n))
        router.drain()
        stats = router.cluster_stats()
        assert stats.shards == 2 and stats.replicas == 2
        assert len(stats.per_worker) == 4
        assert sum(w.requests_served for w in stats.per_worker) >= 60
        assert sum(stats.per_shard.values()) == stats.subs_dispatched


class TestShardBuild:
    """The cluster builds its shards through ``build_sharded_store``."""

    @pytest.mark.parametrize("workers,replicas", [(2, 1), (4, 2)])
    def test_disk_shards_get_their_own_directories(self, tmp_path, workers, replicas):
        """Shards of a directory-backed kind must not clobber one path:
        every reply equals the monolithic packed store's row."""
        src, dst, n = rmat_edges(8, 2000, rng=np.random.default_rng(1))
        src, dst = ensure_sorted(src, dst)
        router, _ = _cluster(src, dst, n, workers=workers, replicas=replicas,
                             kind="disk", store_opts={"path": tmp_path})
        slots = [router.submit(NeighborsRequest(node=u)) for u in range(n)]
        router.drain()
        reference = open_store("packed", src, dst, n)
        for u, slot in enumerate(slots):
            got, want = slot.result(), reference.neighbors(u)
            assert got.dtype == want.dtype and np.array_equal(got, want), u
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shard-0", "shard-1"]


@pytest.mark.parametrize("kind", ["packed", "compact", "disk", "lsm"])
def test_extract_edges_equals_the_row_walk(kind):
    src, dst, n = _dense_edges()
    src, dst = ensure_sorted(src, dst)
    store = open_store(kind, src, dst, n)
    if kind == "lsm":  # a dirty memtable: the walk must see the merged view
        store.delete_edge(int(src[0]), int(dst[0]))
        store.insert_edge(n - 1, 0)
        store.insert_edge(5, n - 1)
    rows = [np.asarray(store.neighbors(u), dtype=np.int64) for u in range(n)]
    want_src = np.repeat(np.arange(n, dtype=np.int64), [len(r) for r in rows])
    got_src, got_dst = extract_edges(store)
    assert got_src.dtype == got_dst.dtype == np.int64
    assert np.array_equal(got_src, want_src)
    assert np.array_equal(got_dst, np.concatenate(rows))
