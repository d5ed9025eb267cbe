"""Admission control: bounded queues, overload policies, backpressure.

Exercised both as a bare policy object and end-to-end through the one
front door (:class:`~repro.serve.loop.ServeLoop`) on a deterministic
clock — as a monolithic :class:`GraphQueryServer` and, in the
``*Routed`` classes, as a 1x1 and a 2-shard x 2-replica cluster
:class:`~repro.cluster.Router` — asserting the overload contract:
reject refuses the newcomer, shed-oldest evicts the longest-queued
ticket, block serves a batch to make room, and the queue never exceeds
its capacity under any policy.
"""

import numpy as np
import pytest

from repro.csr import build_csr_serial, ensure_sorted
from repro.errors import AdmissionError, ValidationError
from repro.serve import (
    DONE,
    REJECTED,
    SHED,
    AdmissionController,
    GraphQueryServer,
    ManualClock,
    NeighborsRequest,
    ServerConfig,
    open_server,
)


@pytest.fixture
def store(rng):
    n, m = 50, 600
    src = np.sort(rng.integers(0, n, m))
    dst = rng.integers(0, n, m)
    return build_csr_serial(*ensure_sorted(src, dst), n)


@pytest.fixture
def layout():
    """``(workers, replicas)`` of the front door under test; ``None``
    is the monolithic server (the ``*Routed`` classes override this)."""
    return None


class Routed:
    """Mixin: rerun a policy class's tests through cluster routers."""

    @pytest.fixture(params=[(1, 1), (4, 2)], ids=["router-1x1", "router-2x2"])
    def layout(self, request):
        return request.param


def _server(store, policy, *, capacity=4, batch=100, layout=None):
    clock = ManualClock()
    # a huge window so nothing closes on its own: overload is the test
    knobs = dict(max_batch_size=batch, max_wait_ns=1 << 50,
                 queue_capacity=capacity, policy=policy)
    if layout is None:
        return GraphQueryServer(store, config=ServerConfig(**knobs),
                                clock=clock), clock
    workers, replicas = layout
    config = ServerConfig(store=store, workers=workers, replicas=replicas,
                          cluster=True, **knobs)
    return open_server(config, clock=clock), clock


class TestController:
    def test_validation(self):
        with pytest.raises(ValidationError):
            AdmissionController(0)
        with pytest.raises(ValidationError):
            AdmissionController(4, "drop-everything")

    def test_decisions_and_counters(self):
        ac = AdmissionController(2, "reject")
        assert ac.decide(0) == "accept"
        assert ac.decide(1) == "accept"
        assert ac.decide(2) == "reject"
        ac.record_admitted(1)
        ac.record_admitted(2)
        s = ac.stats()
        assert (s.accepted, s.rejected, s.high_watermark) == (2, 1, 2)
        assert s.submitted == 3

    @pytest.mark.parametrize("policy,decision", [
        ("reject", "reject"), ("shed-oldest", "shed"), ("block", "block"),
    ])
    def test_policy_overload_decision(self, policy, decision):
        ac = AdmissionController(1, policy)
        assert ac.decide(1) == decision


class TestRejectPolicy:
    def test_newcomers_refused_at_capacity(self, store, layout):
        srv, _ = _server(store, "reject", capacity=3, layout=layout)
        slots = [srv.submit(NeighborsRequest(node=i)) for i in range(5)]
        assert [s.status for s in slots[:3]] == ["pending"] * 3
        assert [s.status for s in slots[3:]] == [REJECTED] * 2
        with pytest.raises(AdmissionError):
            slots[3].result()
        srv.drain()
        assert all(s.status == DONE for s in slots[:3])
        snap = srv.snapshot()
        assert (snap.accepted, snap.rejected, snap.completed) == (3, 2, 3)


class TestRejectPolicyRouted(Routed, TestRejectPolicy):
    pass


class TestShedOldestPolicy:
    def test_oldest_evicted_newest_admitted(self, store, layout):
        srv, _ = _server(store, "shed-oldest", capacity=3, layout=layout)
        slots = [srv.submit(NeighborsRequest(node=i)) for i in range(5)]
        # 0 and 1 were the oldest when 3 and 4 arrived
        assert [s.status for s in slots] == [SHED, SHED, "pending", "pending", "pending"]
        srv.drain()
        assert [s.status for s in slots[2:]] == [DONE] * 3
        snap = srv.snapshot()
        assert snap.shed == 2
        assert snap.accepted == 5  # all five were admitted at some point
        assert snap.completed == 3

    def test_shed_slot_raises_on_result(self, store, layout):
        srv, _ = _server(store, "shed-oldest", capacity=1, layout=layout)
        first = srv.submit(NeighborsRequest(node=0))
        srv.submit(NeighborsRequest(node=1))
        assert first.status == SHED
        with pytest.raises(AdmissionError):
            first.result()


class TestShedOldestPolicyRouted(Routed, TestShedOldestPolicy):
    pass


class TestBlockPolicy:
    def test_backpressure_serves_to_make_room(self, store, layout):
        srv, _ = _server(store, "block", capacity=3, layout=layout)
        slots = [srv.submit(NeighborsRequest(node=i)) for i in range(7)]
        # every overflow submit forced a dispatch: nothing lost, nothing shed
        srv.drain()
        assert all(s.status == DONE for s in slots)
        snap = srv.snapshot()
        assert snap.completed == 7
        assert snap.rejected == snap.shed == 0
        # submits 3 and 6 found the queue full; each forced one dispatch
        assert snap.blocked == 2

    def test_block_with_small_batches(self, store, layout):
        srv, _ = _server(store, "block", capacity=4, batch=2, layout=layout)
        slots = [srv.submit(NeighborsRequest(node=i % 5)) for i in range(20)]
        srv.drain()
        assert all(s.status == DONE for s in slots)


class TestBlockPolicyRouted(Routed, TestBlockPolicy):
    pass


class TestQueueBound:
    @pytest.mark.parametrize("policy", ["reject", "shed-oldest", "block"])
    def test_depth_never_exceeds_capacity(self, store, policy, layout):
        srv, _ = _server(store, policy, capacity=5, layout=layout)
        for i in range(50):
            srv.submit(NeighborsRequest(node=i % 10))
            assert srv.coalescer.pending <= 5
        assert srv.snapshot().queue_depth_high_watermark <= 5


class TestQueueBoundRouted(Routed, TestQueueBound):
    pass
