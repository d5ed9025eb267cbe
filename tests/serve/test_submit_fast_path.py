"""The straight-line submit path: what it skips, and what it may not.

``ServeLoop.submit`` admits an exact :class:`NeighborsRequest` /
:class:`EdgeRequest` without its isinstance chain, consults the
admission policy only at capacity, and pumps only when something is
due; :meth:`MicroBatch.plan` keys its dedup dicts by the ids
themselves.  These tests hold all of that to the behaviour it replaced:

* every refusal still raises the same one-line message, on the
  monolith and on the router, and a request subclass is still served;
* the plan equals, field by field, the tuple-keyed plan it replaced
  (kept below as the oracle);
* on a :class:`ManualClock`, skipping the pumps that had nothing to do
  changes no ticket and no snapshot figure.
"""

import re
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csr.builder import ensure_sorted
from repro.errors import ValidationError
from repro.query import QueryEngine
from repro.serve import (
    DONE,
    AnalyticsRequest,
    EdgeRequest,
    ManualClock,
    NeighborsRequest,
    ReadRequest,
    ServerConfig,
    WriteRequest,
    open_server,
)
from repro.serve.coalescer import MicroBatch
from repro.stores import open_store

FRONTS = [None, (1, 1), (4, 2)]
FRONT_IDS = ["monolith", "router-1x1", "router-2x2"]

ANALYTICS = ("analytics requests are long-running jobs — submit them "
             "through submit_job(), not submit()")
MONOLITH_READ_ONLY = ("store does not support writes (serve writes need a "
                      "write-capable store such as the lsm kind)")
ROUTER_READ_ONLY = ("cluster serving is read-only (route writes to a "
                    "single-worker server over an lsm store)")


@dataclass(slots=True)
class TaggedNeighbors(NeighborsRequest):
    """A caller's own request type: served as its base class."""

    tag: str = ""


@dataclass(slots=True)
class TaggedEdge(EdgeRequest):
    tag: str = ""


def _graph(seed=7, n=40, m=300):
    rng = np.random.default_rng(seed)
    return (*ensure_sorted(rng.integers(0, n, m), rng.integers(0, n, m)), n)


def _front(layout, *, kind="packed", **knobs):
    src, dst, n = _graph()
    if layout is not None:
        knobs.update(workers=layout[0], replicas=layout[1], cluster=True)
    clock = ManualClock()
    return open_server(ServerConfig(store_kind=kind, edges=(src, dst, n),
                                    **knobs), clock=clock), clock


def _exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize("layout", FRONTS, ids=FRONT_IDS)
class TestNoValidationLoosened:
    def test_bare_read_request(self, layout):
        front, _ = _front(layout)
        req = ReadRequest()
        with pytest.raises(ValidationError,
                           match=_exactly("unsupported request type ReadRequest")):
            front.submit(req)
        assert req.ticket < 0

    def test_analytics_request(self, layout):
        front, _ = _front(layout)
        req = AnalyticsRequest(algorithm="bfs")
        with pytest.raises(ValidationError, match=_exactly(ANALYTICS)):
            front.submit(req)
        assert req.ticket < 0

    @pytest.mark.parametrize("make", [
        lambda: NeighborsRequest(node=3),
        lambda: EdgeRequest(u=3, v=4),
        lambda: TaggedNeighbors(node=3),
        lambda: TaggedEdge(u=3, v=4),
    ], ids=["neighbors", "edge", "neighbors-subclass", "edge-subclass"])
    def test_request_submitted_twice(self, layout, make):
        front, _ = _front(layout)
        req = make()
        front.submit(req)
        ticket = req.ticket
        with pytest.raises(ValidationError,
                           match=_exactly("request was already submitted")):
            front.submit(req)
        front.drain()
        assert req.ticket == ticket
        assert front.snapshot().accepted == 1

    def test_unknown_write_op(self, layout):
        # the monolith over an lsm store names the op; a router refuses
        # every write first, as before
        front, _ = _front(layout, kind="lsm" if layout is None else "packed")
        message = ("unknown write op 'upsert' (known: insert, delete)"
                   if layout is None else ROUTER_READ_ONLY)
        req = WriteRequest(op="upsert", u=0, v=1)
        with pytest.raises(ValidationError, match=_exactly(message)):
            front.submit(req)
        assert req.ticket < 0

    def test_write_to_read_only_front_door(self, layout):
        front, _ = _front(layout)
        message = MONOLITH_READ_ONLY if layout is None else ROUTER_READ_ONLY
        req = WriteRequest(op="insert", u=0, v=1)
        with pytest.raises(ValidationError, match=_exactly(message)):
            front.submit(req)
        assert req.ticket < 0

    def test_subclasses_served_with_the_base_reply(self, layout):
        src, dst, n = _graph()
        engine = QueryEngine(open_store("packed", src, dst, n))
        front, _ = _front(layout, max_batch_size=4)
        slots = [front.submit(req) for req in (
            TaggedNeighbors(node=5, tag="a"), NeighborsRequest(node=5),
            TaggedEdge(u=int(src[0]), v=int(dst[0]), tag="b"),
            EdgeRequest(u=1, v=2), TaggedNeighbors(node=9))]
        front.drain()
        assert [s.status for s in slots] == [DONE] * 5
        for slot in slots:
            req = slot.request
            if isinstance(req, NeighborsRequest):
                want = engine.neighbors([req.node])[0]
                assert slot.result().dtype == want.dtype
                assert np.array_equal(slot.result(), want)
            else:
                assert slot.result() == bool(engine.has_edges([(req.u, req.v)])[0])
        assert front.snapshot().duplicates_coalesced == 1  # both node-5 reads


# -- the plan: the tuple-keyed plan it replaced is the oracle --------------
def tuple_key_plan(requests):
    """The batch plan as it was built before ids keyed the dedup dicts:
    one ``Request.key`` tuple per request, isinstance dispatch."""
    nreqs, nlane, node_of, uniq_nodes = [], [], {}, []
    ereqs, elane, edge_of, uniq_edges = [], [], {}, []
    for req in requests:
        if isinstance(req, NeighborsRequest):
            lane = node_of.setdefault(req.key, len(uniq_nodes))
            if lane == len(uniq_nodes):
                uniq_nodes.append(int(req.node))
            nreqs.append(req)
            nlane.append(lane)
        elif isinstance(req, EdgeRequest):
            lane = edge_of.setdefault(req.key, len(uniq_edges))
            if lane == len(uniq_edges):
                uniq_edges.append((int(req.u), int(req.v)))
            ereqs.append(req)
            elane.append(lane)
    return (tuple(nreqs), tuple(nlane), np.asarray(uniq_nodes, dtype=np.int64),
            tuple(ereqs), tuple(elane),
            np.asarray(uniq_edges, dtype=np.int64).reshape(-1, 2))


ids = st.builds(lambda v, wide: np.int64(v) if wide else v,
                st.integers(0, 5), st.booleans())
point_reads = st.one_of(
    st.builds(NeighborsRequest, node=ids),
    st.builds(TaggedNeighbors, node=ids),
    st.builds(EdgeRequest, u=ids, v=ids),
    st.builds(TaggedEdge, u=ids, v=ids),
)


@settings(max_examples=300, deadline=None)
@given(requests=st.lists(point_reads, max_size=40))
def test_plan_equals_the_tuple_key_plan(requests):
    plan = MicroBatch(tuple(requests), "size", 0.0).plan
    nreqs, nlane, nodes, ereqs, elane, edges = tuple_key_plan(requests)
    assert len(plan.neighbor_requests) == len(nreqs)
    assert all(a is b for a, b in zip(plan.neighbor_requests, nreqs))
    assert len(plan.edge_requests) == len(ereqs)
    assert all(a is b for a, b in zip(plan.edge_requests, ereqs))
    assert plan.node_lane == nlane and plan.edge_lane == elane
    for got, want in ((plan.unique_nodes, nodes), (plan.unique_edges, edges)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert plan.duplicates == (len(nreqs) - len(nodes)) + (len(ereqs) - len(edges))


# -- skipped pumps: a submit that pumps every time is the oracle ------------
def pump_on_every_submit(front):
    """Make *front* pump on every admitted submit, as the loop did before
    it learnt to pump only when a batch, a job slice or an event is due:
    its coalescer says a batch is due after every offer."""
    base = type(front.coalescer)

    class AlwaysDue(base):
        __slots__ = ()

        def offer(self, request, now=None):
            base.offer(self, request, now)
            return True

    front.coalescer.__class__ = AlwaysDue
    return front


def _schedule(seed, n, count=600):
    """Seeded open-loop arrivals: bursts and gaps around the wait
    window, hot keys, both kinds, subclasses, and one analytics job."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        gap = float(rng.choice([0.0, 20.0, 150.0, 900.0, 4_000.0]))
        u, v = int(min(rng.zipf(1.5) - 1, n - 1)), int(rng.integers(0, n))
        pick = rng.integers(0, 5)
        req = (NeighborsRequest(node=u) if pick < 2 else
               EdgeRequest(u=u, v=v) if pick < 4 else
               TaggedNeighbors(node=v))
        out.append((gap, req))
        if i == count // 3:
            out.append((0.0, AnalyticsRequest(algorithm="bfs",
                                              params={"source": 0})))
    return out


def _drive(front, clock, schedule):
    """Submit *schedule* on the virtual clock; returns the slots, the job
    handles, and how many slots were still unresolved after each submit
    (what a caller polling ``slot.ready`` sees)."""
    slots, jobs, unresolved = [], [], []
    for i, (gap, req) in enumerate(schedule):
        clock.advance(gap)
        if isinstance(req, AnalyticsRequest):
            jobs.append(front.submit_job(req))
        else:
            slots.append(front.submit(req))
            unresolved.append(sum(not s.ready for s in slots))
        if i % 97 == 96:
            front.pump()
    front.drain()
    return slots, jobs, unresolved


def snapshot_of(front):
    """The front door's snapshot; on the monolith less its one wall
    figure (``service_ns_total``: kernel wall time, which no two runs
    share), on a router — simulated service time — all of it."""
    snap = front.snapshot()
    if hasattr(front, "engine"):
        snap = replace(snap, service_ns_total=0.0)
    return snap


def _ticket(slot):
    req = slot.request
    reply = slot.result() if slot.status == DONE else None
    if isinstance(reply, np.ndarray):
        reply = (reply.dtype.str, reply.tolist())
    return (req.ticket, slot.status, req.enqueue_ns, req.dispatch_ns,
            req.complete_ns, reply)


#: queue shapes: one where the queue fills before a batch can close by
#: size (the admission policy engages), one where size closes batches
SHAPES = {
    "overload": dict(max_batch_size=8, queue_capacity=6),
    "size-closing": dict(max_batch_size=4, queue_capacity=64),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("policy", ["reject", "shed-oldest", "block"])
@pytest.mark.parametrize("layout", FRONTS, ids=FRONT_IDS)
def test_skipped_pumps_change_nothing(layout, policy, shape):
    knobs = dict(max_wait_ns=1_000.0, policy=policy, cache_elements=200,
                 **SHAPES[shape])
    if layout is not None:  # hedges read the service samples landed so far
        knobs.update(hedge_percentile=50.0, hedge_min_samples=4)
    runs = []
    for eager in (True, False):
        front, clock = _front(layout, **knobs)
        if eager:
            pump_on_every_submit(front)
        # a fresh schedule per run (seeded): submit stamps requests in place
        slots, jobs, unresolved = _drive(front, clock, _schedule(11, _graph()[2]))
        runs.append((
            [_ticket(s) for s in slots] + unresolved,
            [(j.status, j.slices, j.request.complete_ns,
              np.asarray(j.result().value).tolist()) for j in jobs],
            snapshot_of(front),
            getattr(front, "cluster_stats", lambda: None)(),
        ))
    (want_t, want_j, want_s, want_c), (got_t, got_j, got_s, got_c) = runs
    assert got_t == want_t
    assert got_j == want_j
    assert got_s == want_s
    assert got_c == want_c
    # the schedule exercised what the pump decision depends on
    assert want_s.close_reasons.get("window", 0) > 0
    if shape == "overload":
        assert want_s.rejected + want_s.shed + want_s.blocked > 0
    else:
        assert want_s.close_reasons.get("size", 0) > 0
