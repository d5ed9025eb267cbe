"""Unit tests for the span tracer: lifecycle, stack, ring, sampling."""

import pytest

from repro.errors import ReproError
from repro.obs import NULL_TRACER, ObsConfig, Span, Tracer
from repro.parallel.cost import Cost


def make_tracer(**kwargs):
    ticks = iter(range(10_000))

    def clock():
        return float(next(ticks))

    return Tracer(ObsConfig(**kwargs), clock=clock)


class TestLifecycle:
    def test_begin_end_commits_span(self):
        tr = make_tracer()
        sid = tr.begin("request", "serve", ticket=7)
        assert tr.spans() == []  # still open
        tr.end(sid)
        (span,) = tr.spans()
        assert span.name == "request"
        assert span.layer == "serve"
        assert span.ticket == 7
        assert span.parent_id is None
        assert span.duration_ns == 1.0

    def test_end_is_idempotent(self):
        tr = make_tracer()
        sid = tr.begin("a", "serve")
        tr.end(sid)
        tr.end(sid)
        tr.end(999)  # unknown id is a no-op too
        assert len(tr.spans()) == 1

    def test_explicit_stamps_beat_clock(self):
        tr = make_tracer()
        sid = tr.begin("a", "serve", start_ns=100.0)
        tr.end(sid, end_ns=250.0)
        (span,) = tr.spans()
        assert span.start_ns == 100.0
        assert span.end_ns == 250.0
        assert span.duration_ns == 150.0

    def test_open_span_has_zero_duration(self):
        span = Span(span_id=1, name="x", layer="serve", start_ns=5.0)
        assert span.duration_ns == 0.0

    def test_record_is_analytic(self):
        tr = make_tracer()
        sid = tr.record("enqueue", "serve", start_ns=10.0, end_ns=30.0,
                        ticket=3, cost=Cost(reads=2))
        (span,) = tr.spans()
        assert span.span_id == sid
        assert span.duration_ns == 20.0
        assert span.cost.reads == 2

    def test_to_dict_shape(self):
        tr = make_tracer()
        sid = tr.begin("kernel:neighbors", "query", meta={"keys": 4})
        tr.add_cost(sid, Cost(reads=4, bit_ops=10))
        tr.end(sid)
        d = tr.spans()[0].to_dict()
        assert d["name"] == "kernel:neighbors"
        assert d["parent_id"] is None
        assert d["cost"]["reads"] == 4
        assert d["cost"]["bit_ops"] == 10
        assert d["meta"] == {"keys": 4}


class TestStackParenting:
    def test_span_block_parents_nested(self):
        tr = make_tracer()
        with tr.span("dispatch", "serve") as outer:
            with tr.span("kernel:neighbors", "query") as inner:
                assert tr.current() == inner
            assert tr.current() == outer
        assert tr.current() is None
        spans = {s.name: s for s in tr.spans()}
        assert spans["kernel:neighbors"].parent_id == outer
        assert spans["dispatch"].parent_id is None

    def test_under_parents_to_open_span(self):
        tr = make_tracer()
        sub = tr.begin("sub", "router")
        with tr.under(sub):
            with tr.span("dispatch", "serve"):
                pass
        tr.end(sub)
        spans = {s.name: s for s in tr.spans()}
        assert spans["dispatch"].parent_id == sub

    def test_under_none_is_noop(self):
        tr = make_tracer()
        with tr.under(None):
            assert tr.current() is None

    def test_explicit_parent_wins_over_stack(self):
        tr = make_tracer()
        root = tr.begin("request", "serve")
        with tr.span("dispatch", "serve"):
            sid = tr.record("enqueue", "serve", start_ns=0.0, end_ns=1.0,
                            parent=root)
        tr.end(root)
        span = next(s for s in tr.spans() if s.name == "enqueue")
        assert span.parent_id == root


class TestCostAttribution:
    def test_phase_charges_innermost(self):
        tr = make_tracer()
        with tr.span("dispatch", "serve"):
            with tr.span("kernel:neighbors", "query"):
                tr.phase("decode", "parallel", Cost(reads=3), 0.0, 1.0, {})
                tr.phase("gather", "serial", Cost(bit_ops=5), 1.0, 2.0, {})
        spans = {s.name: s for s in tr.spans()}
        assert set(spans) == {"dispatch", "kernel:neighbors"}
        assert spans["kernel:neighbors"].cost == Cost(reads=3, bit_ops=5)
        assert spans["dispatch"].cost == Cost.zero()

    def test_phase_outside_any_span_becomes_root_span(self):
        tr = make_tracer()
        tr.phase("degree:count", "parallel", Cost(reads=3), 10.0, 25.0,
                 {"clock": "virtual", "imbalance": 1.5})
        tr.phase("", "serial", Cost.zero(), 25.0, 25.0, {"clock": "wall"})
        first, second = tr.spans()
        assert (first.layer, first.name, first.parent_id) == (
            "parallel", "degree:count", None)
        assert (first.start_ns, first.end_ns, first.cost) == (10.0, 25.0, Cost(reads=3))
        assert first.meta == {"clock": "virtual", "imbalance": 1.5}
        assert (second.layer, second.name) == ("serial", "phase")

    def test_add_cost_after_close_is_noop(self):
        tr = make_tracer()
        sid = tr.begin("a", "serve")
        tr.end(sid)
        tr.add_cost(sid, Cost(reads=1))
        assert tr.spans()[0].cost == Cost.zero()

    def test_annotate_open_and_closed(self):
        tr = make_tracer()
        sid = tr.begin("a", "serve", meta={"x": 1})
        tr.annotate(sid, y=2)
        tr.end(sid)
        tr.annotate(sid, z=3)  # closed: no-op
        assert tr.spans()[0].meta == {"x": 1, "y": 2}


class TestRingAndSampling:
    def test_ring_drops_oldest_and_counts(self):
        tr = make_tracer(capacity=3)
        for i in range(5):
            sid = tr.begin(f"s{i}", "serve")
            tr.end(sid)
        assert tr.dropped == 2
        assert [s.name for s in tr.spans()] == ["s2", "s3", "s4"]

    def test_clear_resets(self):
        tr = make_tracer(capacity=1)
        for _ in range(3):
            tr.end(tr.begin("a", "serve"))
        tr.clear()
        assert tr.spans() == []
        assert tr.dropped == 0

    def test_sampling_modulo(self):
        tr = make_tracer(sample_every=4)
        picks = [tr.sample_root() for _ in range(8)]
        assert picks == [True, False, False, False, True, False, False, False]

    def test_sample_every_one_traces_everything(self):
        tr = make_tracer()
        assert all(tr.sample_root() for _ in range(5))

    def test_sample_root_under_open_span_never_consumes(self):
        tr = make_tracer(sample_every=2)
        with tr.span("outer", "router"):
            assert not tr.sample_root()  # nested submit: not a root...
        assert tr.sample_root()  # ...and the counter did not advance


class TestConfigValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError, match="capacity"):
            ObsConfig(capacity=0)

    def test_sample_every_must_be_positive(self):
        with pytest.raises(ReproError, match="sample_every"):
            ObsConfig(sample_every=0)


class TestNullTracer:
    def test_everything_is_a_noop(self):
        tr = NULL_TRACER
        assert not tr.enabled
        assert not tr.sample_root()
        assert tr.begin("a", "serve") == -1
        tr.end(-1)
        assert tr.record("a", "serve", start_ns=0.0, end_ns=1.0) == -1
        with tr.span("a", "serve") as sid:
            assert sid == -1
        with tr.under(5):
            pass
        assert tr.current() is None
        tr.phase("x", "serial", Cost(reads=1), 0.0, 1.0, {})
        tr.add_cost(1, Cost(reads=1))
        tr.annotate(1, k=1)
        assert tr.spans() == []
        tr.clear()
        assert tr.dropped == 0
