"""Unit tests for rollups, subtree sums, and flamegraph folding."""

from repro.obs import (
    Span,
    children_index,
    flamegraph_folded,
    rollup_spans,
    subtree_cost,
    subtree_spans,
)
from repro.parallel.cost import DEFAULT_COST_MODEL, Cost


def span(sid, name, layer, *, parent=None, start=0.0, end=10.0, cost=None):
    s = Span(span_id=sid, name=name, layer=layer, start_ns=start,
             end_ns=end, parent_id=parent)
    if cost is not None:
        s.cost = cost
    return s


def sample_tree():
    """request -> (enqueue, dispatch -> kernel); plus a second request."""
    return [
        span(1, "request", "serve", start=0.0, end=100.0),
        span(2, "enqueue", "serve", parent=1, start=0.0, end=20.0),
        span(3, "dispatch", "serve", parent=1, start=20.0, end=90.0),
        span(4, "kernel:neighbors", "query", parent=3, start=25.0, end=85.0,
             cost=Cost(reads=4, bit_ops=10)),
        span(5, "request", "serve", start=50.0, end=130.0),
    ]


class TestRollup:
    def test_aggregates_by_layer_and_name(self):
        rows = {r.key: r for r in rollup_spans(sample_tree())}
        assert rows["serve:request"].spans == 2
        assert rows["serve:request"].wall_ns == 180.0
        assert rows["query:kernel:neighbors"].cost == Cost(reads=4, bit_ops=10)

    def test_sorted_heaviest_cost_first(self):
        rows = rollup_spans(sample_tree())
        assert rows[0].key == "query:kernel:neighbors"
        assert rows[0].cost_ns == DEFAULT_COST_MODEL.time_ns(
            Cost(reads=4, bit_ops=10))
        # zero-cost phases tie on cost and fall back to wall then key
        zero = [r.key for r in rows[1:]]
        assert zero == ["serve:request", "serve:dispatch", "serve:enqueue"]

    def test_empty_input(self):
        assert rollup_spans([]) == []


class TestTree:
    def test_children_index_roots_under_none(self):
        index = children_index(sample_tree())
        assert [s.span_id for s in index[None]] == [1, 5]
        assert [s.span_id for s in index[1]] == [2, 3]
        assert [s.span_id for s in index[3]] == [4]

    def test_subtree_spans_depth_first(self):
        ids = [s.span_id for s in subtree_spans(sample_tree(), 1)]
        assert ids == [1, 2, 3, 4]

    def test_subtree_of_leaf_is_itself(self):
        ids = [s.span_id for s in subtree_spans(sample_tree(), 4)]
        assert ids == [4]

    def test_subtree_cost_sums_descendants(self):
        spans = sample_tree()
        assert subtree_cost(spans, 1) == Cost(reads=4, bit_ops=10)
        assert subtree_cost(spans, 5) == Cost.zero()


class TestFlamegraph:
    def test_folded_paths_and_values(self):
        lines = flamegraph_folded(sample_tree())
        assert len(lines) == 1  # only cost-bearing spans emit
        path, value = lines[0].rsplit(" ", 1)
        assert path == "request;dispatch;kernel:neighbors"
        expected = DEFAULT_COST_MODEL.time_ns(Cost(reads=4, bit_ops=10))
        assert int(value) == int(round(expected))

    def test_identical_stacks_merge_in_first_seen_order(self):
        """Two requests through the same stack fold into one line whose
        value is the sum of their self costs."""
        one, two = Cost(reads=4, bit_ops=10), Cost(reads=7)
        spans = sample_tree() + [
            span(6, "dispatch", "serve", parent=5),
            span(7, "kernel:edges", "query", parent=6, cost=Cost(reads=2)),
            span(8, "kernel:neighbors", "query", parent=6, cost=two),
        ]
        lines = flamegraph_folded(spans)
        ns = DEFAULT_COST_MODEL.time_ns
        assert lines == [
            f"request;dispatch;kernel:neighbors {int(round(ns(one) + ns(two)))}",
            f"request;dispatch;kernel:edges {int(round(ns(Cost(reads=2))))}",
        ]

    def test_orphan_parent_truncates_path(self):
        orphan = [span(7, "kernel:edges", "query", parent=99,
                       cost=Cost(reads=1))]
        (line,) = flamegraph_folded(orphan)
        assert line.startswith("kernel:edges ")

    def test_zero_cost_trace_is_empty(self):
        assert flamegraph_folded([span(1, "request", "serve")]) == []
