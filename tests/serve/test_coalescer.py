"""Deterministic-clock unit tests for the micro-batch coalescer.

Every closure rule is pinned against a hand-advanced clock: size
before window, window before size, flush-on-shutdown, forced closure,
the analytic (poll-cadence-independent) window close stamp, a closed
window holding only the requests that arrived by its close (also when
the late request filled the queue), and the one window-open stamp.
"""

import numpy as np
import pytest

from repro.csr import build_csr_serial
from repro.errors import ValidationError
from repro.serve import (
    DONE,
    PENDING,
    EdgeRequest,
    GraphQueryServer,
    ManualClock,
    MicroBatchCoalescer,
    NeighborsRequest,
    ServerConfig,
)


def _req(node, clock):
    r = NeighborsRequest(node=node)
    r.enqueue_ns = clock()
    return r


@pytest.fixture
def clock():
    return ManualClock()


class TestSizeClosure:
    def test_batch_closes_on_size_before_window(self, clock):
        co = MicroBatchCoalescer(max_batch_size=3, max_wait_ns=1_000_000, clock=clock)
        for i in range(3):
            co.offer(_req(i, clock))
            clock.advance(10)  # far inside the window
        batch = co.poll()
        assert batch is not None
        assert batch.closed_by == "size"
        assert len(batch) == 3
        assert co.pending == 0

    def test_no_close_below_size_inside_window(self, clock):
        co = MicroBatchCoalescer(max_batch_size=3, max_wait_ns=1_000, clock=clock)
        co.offer(_req(0, clock))
        co.offer(_req(1, clock))
        clock.advance(999)  # window not yet expired
        assert co.poll() is None
        assert co.pending == 2

    def test_size_closure_takes_exactly_max(self, clock):
        co = MicroBatchCoalescer(max_batch_size=2, max_wait_ns=10, clock=clock)
        for i in range(5):
            co.offer(_req(i, clock))
        first = co.poll()
        second = co.poll()
        assert [len(first), len(second)] == [2, 2]
        assert co.pending == 1


class TestWindowClosure:
    def test_batch_closes_on_window_before_size(self, clock):
        co = MicroBatchCoalescer(max_batch_size=100, max_wait_ns=500, clock=clock)
        co.offer(_req(0, clock))
        clock.advance(100)
        co.offer(_req(1, clock))
        assert co.poll() is None  # oldest waited only 100
        clock.advance(400)  # oldest hits exactly 500
        batch = co.poll()
        assert batch is not None
        assert batch.closed_by == "window"
        assert len(batch) == 2  # partial batch: whatever was queued

    def test_window_close_stamp_is_analytic(self, clock):
        """The close time is enqueue+window, not when the poll ran."""
        co = MicroBatchCoalescer(max_batch_size=100, max_wait_ns=500, clock=clock)
        co.offer(_req(0, clock))
        clock.advance(5_000)  # poll runs much later
        batch = co.poll()
        assert batch.closed_ns == 500.0

    def test_window_holds_only_what_arrived_by_its_close(self, clock):
        """A request offered after the oldest window expired is not in
        that window's batch: it opens the next window."""
        co = MicroBatchCoalescer(max_batch_size=100, max_wait_ns=10_000, clock=clock)
        co.offer(_req(0, clock))
        clock.advance_to(100_000)
        assert co.offer(_req(1, clock))  # the oldest window has expired
        batch = co.poll()
        assert batch.closed_by == "window"
        assert batch.closed_ns == 10_000.0
        assert [r.node for r in batch.requests] == [0]
        assert co.poll() is None
        assert co.next_close_ns == 110_000.0

    def test_late_requests_are_counted_from_the_tail(self, clock):
        co = MicroBatchCoalescer(max_batch_size=100, max_wait_ns=500, clock=clock)
        for t in (0, 200, 500, 900, 901):
            clock.advance_to(t)
            co.offer(_req(t, clock))
        batch = co.poll()
        assert [r.node for r in batch.requests] == [0, 200, 500]  # 500 is on time
        assert co.poll() is None  # 900's window closes at 1,400
        clock.advance_to(1_400)
        assert [r.node for r in co.poll().requests] == [900, 901]

    def test_a_late_request_that_fills_the_queue_opens_the_next_window(
            self, clock):
        """``max_batch_size - 1`` requests wait in a window that expired
        before the request that fills the queue arrived: the window
        closes by window at its own close time without that request,
        which opens the next window."""
        co = MicroBatchCoalescer(max_batch_size=4, max_wait_ns=500, clock=clock)
        for t in (0, 100, 200):
            clock.advance_to(t)
            co.offer(_req(t, clock))
        clock.advance_to(900)
        assert co.offer(_req(900, clock))  # four queued: the size bound
        batch = co.poll()
        assert batch.closed_by == "window"
        assert batch.closed_ns == 500.0  # opened + max_wait_ns
        assert [r.node for r in batch.requests] == [0, 100, 200]
        assert co.poll() is None
        assert co.opened_ns == 900.0
        assert co.next_close_ns == 1_400.0

    def test_a_batch_full_by_its_close_closes_by_size(self, clock):
        co = MicroBatchCoalescer(max_batch_size=3, max_wait_ns=500, clock=clock)
        for t in (0, 100, 200, 300, 700):
            clock.advance_to(t)
            co.offer(_req(t, clock))
        batch = co.poll()
        assert (batch.closed_by, batch.closed_ns) == ("size", 700.0)
        assert [r.node for r in batch.requests] == [0, 100, 200]
        # what is left re-opens at its head's arrival, 300
        assert co.next_close_ns == 800.0
        assert co.poll() is None
        clock.advance_to(800)
        batch = co.poll()
        assert (batch.closed_by, batch.closed_ns) == ("window", 800.0)
        assert [r.node for r in batch.requests] == [300, 700]

    def test_zero_window_drains_every_poll(self, clock):
        co = MicroBatchCoalescer(max_batch_size=100, max_wait_ns=0, clock=clock)
        co.offer(_req(0, clock))
        batch = co.poll()
        assert batch is not None and len(batch) == 1
        assert batch.closed_by == "window"


class TestWindowStamp:
    """One window-open stamp: set by an offer into an empty queue, reset
    to the new head's arrival by every close or shed that leaves
    requests queued; poll, offer and next_close_ns all read it."""

    def test_offer_into_an_empty_queue_opens_at_its_now(self, clock):
        co = MicroBatchCoalescer(max_batch_size=100, max_wait_ns=500, clock=clock)
        assert co.next_close_ns is None
        late = _req(0, clock)  # arrived at 0, queued after a dispatch
        assert not co.offer(late, now=2_000.0)
        assert co.opened_ns == 2_000.0
        assert co.next_close_ns == 2_500.0
        assert co.poll(2_499.0) is None
        batch = co.poll(2_500.0)
        assert (batch.closed_by, batch.closed_ns) == ("window", 2_500.0)
        assert co.next_close_ns is None

    def test_a_later_offer_keeps_the_open_window(self, clock):
        co = MicroBatchCoalescer(max_batch_size=100, max_wait_ns=500, clock=clock)
        co.offer(_req(0, clock))
        clock.advance_to(300)
        co.offer(_req(300, clock))
        assert co.opened_ns == 0.0

    def test_shed_reopens_at_the_new_head(self, clock):
        co = MicroBatchCoalescer(max_batch_size=100, max_wait_ns=500, clock=clock)
        for t in (0, 100, 200):
            clock.advance_to(t)
            co.offer(_req(t, clock))
        assert co.shed().node == 0
        assert co.opened_ns == 100.0
        assert co.next_close_ns == 600.0
        co.shed()
        co.shed()
        assert co.next_close_ns is None

    def test_a_forced_close_reopens_at_the_new_head(self, clock):
        co = MicroBatchCoalescer(max_batch_size=2, max_wait_ns=500, clock=clock)
        for t in (0, 100, 200):
            clock.advance_to(t)
            co.offer(_req(t, clock))
        assert len(co.close_batch()) == 2
        assert co.opened_ns == 200.0
        assert co.next_close_ns == 700.0

    @pytest.mark.parametrize("wait", [500.0, 0.2, 333.3])
    def test_poll_closes_exactly_at_next_close_ns(self, clock, wait):
        co = MicroBatchCoalescer(max_batch_size=100, max_wait_ns=wait, clock=clock)
        co.offer(_req(0, clock), now=0.1)
        close = co.next_close_ns
        assert co.poll(np.nextafter(close, 0.0)) is None
        assert co.poll(close).closed_ns == close


class TestFlush:
    def test_flush_drains_queue_in_capped_batches(self, clock):
        co = MicroBatchCoalescer(max_batch_size=4, max_wait_ns=1 << 40, clock=clock)
        for i in range(10):
            co.offer(_req(i, clock))
        batches = co.flush()
        assert [len(b) for b in batches] == [4, 4, 2]
        assert all(b.closed_by == "flush" for b in batches)
        assert co.pending == 0
        # FIFO order preserved across the split
        nodes = [r.node for b in batches for r in b.requests]
        assert nodes == list(range(10))

    def test_flush_empty_is_noop(self, clock):
        co = MicroBatchCoalescer(clock=clock)
        assert co.flush() == []

    def test_close_batch_forces_one(self, clock):
        co = MicroBatchCoalescer(max_batch_size=4, max_wait_ns=1 << 40, clock=clock)
        assert co.close_batch() is None
        for i in range(6):
            co.offer(_req(i, clock))
        batch = co.close_batch()
        assert len(batch) == 4
        assert co.pending == 2


class TestDedup:
    def test_in_batch_dedup_one_reply_lane_per_key(self, clock):
        """Repeated hot keys collapse to one kernel lane while every
        ticket keeps its own position in the plan."""
        co = MicroBatchCoalescer(max_batch_size=8, max_wait_ns=0, clock=clock)
        reqs = [
            NeighborsRequest(node=7),
            NeighborsRequest(node=7),
            EdgeRequest(u=1, v=2),
            NeighborsRequest(node=3),
            EdgeRequest(u=1, v=2),
            NeighborsRequest(node=7),
        ]
        for r in reqs:
            r.enqueue_ns = clock()
            co.offer(r)
        plan = co.poll().plan
        assert plan.unique_nodes.tolist() == [7, 3]
        assert plan.node_lane == (0, 0, 1, 0)
        assert plan.unique_edges.tolist() == [[1, 2]]
        assert plan.edge_lane == (0, 0)
        # one lane assignment per submitted ticket
        assert len(plan.node_lane) + len(plan.edge_lane) == len(reqs)
        assert plan.duplicates == 3

    def test_plan_empty_kinds(self, clock):
        co = MicroBatchCoalescer(max_batch_size=2, max_wait_ns=0, clock=clock)
        r = EdgeRequest(u=0, v=1)
        r.enqueue_ns = clock()
        co.offer(r)
        plan = co.poll().plan
        assert plan.unique_nodes.shape == (0,)
        assert plan.unique_edges.shape == (1, 2)
        assert plan.unique_edges.dtype == np.int64


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            MicroBatchCoalescer(max_batch_size=0)
        with pytest.raises(ValidationError):
            MicroBatchCoalescer(max_wait_ns=-1)

    def test_manual_clock_monotone(self):
        clock = ManualClock(5)
        with pytest.raises(ValidationError):
            clock.advance(-1)
        clock.advance_to(3)  # past target: no-op, never rewinds
        assert clock() == 5


class TestTwoSubmitsWithoutAPump:
    """Submits at 0 and at 100 us on a 10 us window, nothing pumped in
    between: the first window closed at 10 us over the first request
    only, and no request ever reads a negative wait."""

    def test_the_late_submit_starts_the_next_window(self):
        store = build_csr_serial(np.array([0, 1]), np.array([1, 0]), 2)
        clock = ManualClock()
        server = GraphQueryServer(
            store, config=ServerConfig(max_batch_size=64, max_wait_ns=10_000),
            clock=clock)
        first = server.submit(NeighborsRequest(node=0))
        clock.advance_to(100_000)
        second = server.submit(NeighborsRequest(node=1))
        assert first.status == DONE
        assert first.request.dispatch_ns == 10_000.0
        assert first.request.wait_ns == 10_000.0
        assert second.status == PENDING
        assert server.next_wakeup_ns() == 110_000.0
        server.drain()
        assert second.status == DONE
        assert second.request.wait_ns >= 0
        assert second.request.latency_ns >= 0
        snap = server.snapshot()
        assert snap.batches == 2
        assert snap.close_reasons == {"window": 1, "flush": 1}
