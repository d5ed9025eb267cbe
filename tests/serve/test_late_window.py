"""A request that finds the queued window expired, when a dispatch takes
real time.

On a wall clock the serve loop notices an expired window only at the
next ``submit``.  Here a :class:`ManualClock` stands in for it: a store
wrapper advances the clock by twice the wait window inside every
``neighbors_batch``, and back-to-back submits each advance it by a
small step.  The submit that finds the window expired must dispatch it
before it queues itself, so that request opens the next window at the
end of the dispatch — instead of sitting alone in a window that
expires during the dispatch and closing a one-request batch — while its
latency still counts from its arrival.  ``next_wakeup_ns`` must name
the close time ``pump`` uses for that window, and a shed or a ``block``
flush must re-open the window at the new head's arrival.
"""

import numpy as np
import pytest

from repro.csr import BitPackedCSR, build_csr_serial
from repro.csr.builder import ensure_sorted
from repro.serve import (
    DONE,
    GraphQueryServer,
    ManualClock,
    NeighborsRequest,
    ServerConfig,
)
from tests.conftest import CountingStore

WAIT = 1_000.0
DISPATCH = 2 * WAIT


class SlowStore(CountingStore):
    """A store whose batch read lasts ``DISPATCH`` ns of *clock*."""

    def __init__(self, inner, clock):
        super().__init__(inner)
        self._clock = clock

    def neighbors_batch(self, unodes):
        self._clock.advance(DISPATCH)
        return super().neighbors_batch(unodes)


def _server(clock, **knobs):
    rng = np.random.default_rng(3)
    n = 32
    src, dst = ensure_sorted(rng.integers(0, n, 200), rng.integers(0, n, 200))
    store = SlowStore(BitPackedCSR.from_csr(build_csr_serial(src, dst, n)), clock)
    knobs.setdefault("max_wait_ns", WAIT)
    server = GraphQueryServer(store, config=ServerConfig(cache_elements=0, **knobs),
                              clock=clock)
    batches = []
    dispatch = server._dispatch

    def recording(batch):
        batches.append(batch)
        dispatch(batch)

    server._dispatch = recording
    return server, batches


def _feed(server, clock, steps):
    slots = []
    for i, step in enumerate(steps):
        clock.advance(step)
        slots.append(server.submit(NeighborsRequest(node=i % 32)))
    return slots


@pytest.mark.parametrize("max_batch_size,steps", [
    (8, [300.0] * 120),  # every window closes by window
    (5, [300.0] * 120),  # a late request would fill the queue
    (6, np.random.default_rng(5).uniform(0, WAIT / 2, 300).tolist()),
], ids=["window-closing", "late-fills-queue", "random-steps"])
def test_a_late_request_opens_the_next_window(max_batch_size, steps):
    clock = ManualClock()
    server, batches = _server(clock, max_batch_size=max_batch_size)
    slots = _feed(server, clock, steps)
    fed = len(batches)
    server.drain()
    assert all(s.status == DONE for s in slots)
    assert fed > 10

    # no one-request batch falls between full windows: each step is
    # shorter than the window, so the request queued after a dispatch
    # always has company before its window closes
    assert [len(b) for b in batches[:fed] if len(b) == 1] == []

    # no window or size batch holds a request that arrived after it closed
    for batch in batches:
        if batch.closed_by in ("size", "window"):
            assert max(r.enqueue_ns for r in batch.requests) <= batch.closed_ns

    # each late request — the one whose submit dispatched the expired
    # window — waits through that dispatch and then its own window, and
    # its latency counts from its arrival
    late = [s.request for s in slots
            if s.request.dispatch_ns - s.request.enqueue_ns > WAIT]
    assert late
    for req in late:
        assert req.latency_ns == req.complete_ns - req.enqueue_ns
        assert req.wait_ns >= DISPATCH
        assert req.latency_ns >= DISPATCH + DISPATCH


def test_the_wakeup_of_a_window_opened_after_a_dispatch():
    """A virtual driver that advances to ``next_wakeup_ns()`` and pumps
    closes the late request's window at exactly that time."""
    clock = ManualClock()
    server, batches = _server(clock, max_batch_size=64)
    _feed(server, clock, [0.0, 300.0, 300.0, 300.0, 300.0])  # 1,200: late
    assert len(batches) == 1 and batches[0].closed_ns == WAIT
    end = 1_200.0 + DISPATCH  # the late request was queued at the end
    assert clock() == end
    wake = server.next_wakeup_ns()
    assert wake == end + WAIT
    clock.advance_to(np.nextafter(wake, 0.0))
    assert server.pump(clock()) == 0  # not earlier
    while (wake := server.next_wakeup_ns()) is not None:
        clock.advance_to(wake)
        assert server.pump(wake) == 1  # not never
        assert batches[-1].closed_by == "window"
        assert batches[-1].closed_ns == wake
    assert [len(b) for b in batches] == [4, 1]
    (late,) = batches[-1].requests
    assert late.enqueue_ns == 1_200.0
    assert late.complete_ns == end + WAIT + DISPATCH


@pytest.mark.parametrize("policy", ["shed-oldest", "block"])
def test_the_new_head_opens_at_its_own_arrival(policy):
    """After a shed or a ``block`` flush the window of what is queued
    opens at its head's ``enqueue_ns``, not at the old head's."""
    clock = ManualClock()
    server, batches = _server(clock, max_batch_size=16, queue_capacity=3,
                              policy=policy)
    slots = _feed(server, clock, [0.0, 100.0, 100.0, 100.0])
    head = server.coalescer.queue[0]
    if policy == "shed-oldest":
        assert slots[0].status == "shed"
        assert [r.ticket for r in server.coalescer.queue] == [1, 2, 3]
        assert head.enqueue_ns == 100.0
    else:
        assert [b.closed_by for b in batches] == ["flush"]
        assert [r.ticket for r in server.coalescer.queue] == [3]
        # the flush's dispatch ran before the request was queued
        assert head.enqueue_ns == 300.0
    assert server.coalescer.opened_ns == head.enqueue_ns
    assert server.next_wakeup_ns() == head.enqueue_ns + WAIT
