"""Property tests: served replies are bit-exact and exactly-once.

For random interleavings of neighbour and edge requests over every
registered store representation × serial/simulated executors × every
admission policy, :class:`GraphQueryServer` must (a) answer every
completed ticket bit-exactly as a direct per-request
:class:`QueryEngine` call would, and (b) resolve every submitted
ticket exactly once — done, rejected, or shed — with nothing pending
after drain.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import AdjacencyListStore, EdgeListStore
from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.packed import BitPackedCSR
from repro.parallel import SerialExecutor, SimulatedMachine
from repro.query import QueryEngine
from repro.serve import (
    DONE,
    REJECTED,
    SHED,
    EdgeRequest,
    GraphQueryServer,
    ManualClock,
    NeighborsRequest,
    ServerConfig,
)

STORE_BUILDERS = {
    "csr": lambda src, dst, n: build_csr_serial(src, dst, n),
    "packed": lambda src, dst, n: BitPackedCSR.from_csr(build_csr_serial(src, dst, n)),
    "gap": lambda src, dst, n: BitPackedCSR.from_csr(
        build_csr_serial(src, dst, n), gap_encode=True
    ),
    "adjlist": AdjacencyListStore,
    "edgelist": EdgeListStore,
}

EXECUTORS = [
    ("serial", lambda: SerialExecutor()),
    ("sim-p1", lambda: SimulatedMachine(1)),
    ("sim-p4", lambda: SimulatedMachine(4)),
]


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


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), edges=edge_lists())
@pytest.mark.parametrize("exec_name,make_executor", EXECUTORS,
                         ids=[e[0] for e in EXECUTORS])
@pytest.mark.parametrize("store_name", sorted(STORE_BUILDERS))
def test_served_replies_bit_exact(store_name, exec_name, make_executor, data, edges):
    """Coalesced serving equals direct per-request engine calls."""
    src, dst, n = edges
    store = STORE_BUILDERS[store_name](src, dst, n)
    engine = QueryEngine(store)  # independent serial reference
    clock = ManualClock()
    server = GraphQueryServer(
        store,
        make_executor(),
        config=ServerConfig(
            max_batch_size=data.draw(st.integers(1, 8)),
            max_wait_ns=float(data.draw(st.integers(0, 500))),
            queue_capacity=1 << 16,
        ),
        clock=clock,
    )
    slots = []
    for arrival, req in data.draw(request_streams(n)):
        clock.advance_to(arrival)
        server.pump(clock())
        slots.append(server.submit(req))
    server.drain()
    for slot in slots:
        assert slot.status == DONE
        _assert_reply_correct(slot, engine)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), edges=edge_lists())
@pytest.mark.parametrize("policy", ["reject", "shed-oldest", "block"])
def test_every_ticket_resolved_exactly_once(policy, data, edges):
    """Under any admission policy every submitted ticket ends in exactly
    one terminal state, completed ones bit-exact, none left pending."""
    src, dst, n = edges
    store = STORE_BUILDERS["packed"](src, dst, n)
    engine = QueryEngine(store)
    clock = ManualClock()
    server = GraphQueryServer(
        store,
        config=ServerConfig(
            max_batch_size=data.draw(st.integers(1, 6)),
            max_wait_ns=float(data.draw(st.integers(0, 1000))),
            queue_capacity=data.draw(st.integers(1, 6)),
            policy=policy,
        ),
        clock=clock,
    )
    slots = []
    for arrival, req in data.draw(request_streams(n)):
        clock.advance_to(arrival)
        slots.append(server.submit(req))
    server.drain()

    # ReplySlot._resolve raises on double resolution, so reaching a
    # terminal state here proves exactly-once delivery
    assert all(s.ready for s in slots)
    statuses = [s.status for s in slots]
    snap = server.snapshot()
    assert statuses.count(DONE) == snap.completed
    assert statuses.count(REJECTED) == snap.rejected
    assert statuses.count(SHED) == snap.shed
    assert snap.completed + snap.shed == snap.accepted
    assert len(slots) == snap.accepted + snap.rejected
    for slot in slots:
        if slot.status == DONE:
            _assert_reply_correct(slot, engine)


class TestServerSurface:
    """Non-property behaviours of the server object itself."""

    @pytest.fixture
    def packed(self, rng):
        n, m = 30, 200
        src = np.sort(rng.integers(0, n, m))
        dst = rng.integers(0, n, m)
        return BitPackedCSR.from_csr(build_csr_serial(*ensure_sorted(src, dst), n))

    def test_rejects_unknown_request_type(self, packed):
        from repro.errors import ValidationError

        server = GraphQueryServer(packed)
        with pytest.raises(ValidationError):
            server.submit(object())

    def test_double_submit_rejected(self, packed):
        from repro.errors import ValidationError

        server = GraphQueryServer(packed, config=ServerConfig(max_batch_size=1))
        req = NeighborsRequest(node=0)
        server.submit(req)
        with pytest.raises(ValidationError):
            server.submit(req)

    def test_cache_elements_wraps_store(self, packed):
        server = GraphQueryServer(packed, config=ServerConfig(cache_elements=1000))
        assert server.row_cache is not None
        assert server.row_cache.store is packed
        server.submit(NeighborsRequest(node=3))
        server.submit(NeighborsRequest(node=3))
        server.drain()
        assert server.row_cache.stats().misses >= 1

    def test_dedup_identical_results_per_ticket(self, packed):
        """Dedup routes duplicate tickets to one lane; both replies are
        the (bit-exact) row."""
        server = GraphQueryServer(
            packed, config=ServerConfig(max_batch_size=4, max_wait_ns=1 << 40),
            clock=ManualClock())
        a = server.submit(NeighborsRequest(node=5))
        b = server.submit(NeighborsRequest(node=5))
        server.drain()
        assert server.snapshot().duplicates_coalesced == 1
        assert np.array_equal(a.result(), b.result())

    def test_timestamps_ordered(self, packed):
        clock = ManualClock()
        server = GraphQueryServer(
            packed, config=ServerConfig(max_batch_size=10, max_wait_ns=500),
            clock=clock)
        slot = server.submit(NeighborsRequest(node=1))
        clock.advance(2_000)
        server.pump(clock())
        req = slot.request
        assert req.enqueue_ns == 0.0
        assert req.dispatch_ns == 500.0  # analytic window close
        assert req.complete_ns >= req.dispatch_ns
        assert req.wait_ns == 500.0
        assert req.latency_ns >= 500.0
