"""ShardedStore correctness: bit-exact scatter-gather, cost parity,
persistence, memory accounting, and grouped construction."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import open_store
from repro.csr.builder import ensure_sorted
from repro.errors import NotSortedError, QueryError, ValidationError
from repro.obs import Tracer
from repro.parallel import Cost, CostModel, SerialExecutor, SimulatedMachine
from repro.query import RowCache, batch_edge_existence, batch_neighbors
from repro.query.stores import GraphStore
from repro.stores import load_store, save_store
from repro.shard import (
    HashPartitioner,
    RangePartitioner,
    ShardedStore,
    build_sharded_store,
    shard_edge_list,
)

INNER_KINDS = ["csr", "packed", "gap"]
PARTITIONERS = ["range", "hash"]

EXECUTORS = [
    ("serial", lambda: SerialExecutor()),
    ("sim-p4", lambda: SimulatedMachine(4)),
    ("sim-p16", lambda: SimulatedMachine(16)),
]


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 80))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        )
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        )
    )
    src, dst = ensure_sorted(src, dst)
    return src, dst, n


def _pair(inner, part, src, dst, n, *, shards=3, **opts):
    mono = open_store(inner, src, dst, n)
    sharded = open_store(
        "sharded", src, dst, n, shards=shards, partitioner=part, inner=inner, **opts
    )
    return mono, sharded


class TestShardEdgeList:
    def test_partition_covers_every_edge(self, sorted_edges):
        src, dst, n = sorted_edges
        part = HashPartitioner(4)
        groups = shard_edge_list(src, dst, part)
        assert sum(len(s) for s, _ in groups) == len(src)
        for s, (g_src, g_dst) in enumerate(groups):
            assert np.all(part.shard_of_array(g_src) == s)
            # stable grouping keeps each shard (u, v)-sorted
            keys = (g_src.astype(np.uint64) << np.uint64(32)) | g_dst.astype(
                np.uint64
            )
            assert np.all(np.diff(keys.astype(np.int64)) >= 0)


@pytest.mark.parametrize("partitioner", PARTITIONERS)
@pytest.mark.parametrize("inner", INNER_KINDS)
class TestBitExactParity:
    """Acceptance: sharded batched results are bit-identical to the
    monolithic store across >= 2 inner kinds x both partitioners."""

    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(data=st.data(), edges=edge_lists())
    def test_neighbors_batch(self, inner, partitioner, data, edges):
        src, dst, n = edges
        mono, sharded = _pair(inner, partitioner, src, dst, n)
        k = data.draw(st.integers(0, 30))
        us = np.asarray(
            data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)),
            dtype=np.int64,
        )
        want_flat, want_offs = mono.neighbors_batch(us)
        got_flat, got_offs = sharded.neighbors_batch(us)
        assert got_flat.dtype == want_flat.dtype
        assert np.array_equal(got_offs, want_offs)
        assert np.array_equal(got_flat, want_flat)

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(data=st.data(), edges=edge_lists())
    def test_point_queries(self, inner, partitioner, data, edges):
        src, dst, n = edges
        mono, sharded = _pair(inner, partitioner, src, dst, n)
        assert sharded.num_nodes == mono.num_nodes
        assert sharded.num_edges == mono.num_edges
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        assert sharded.degree(u) == mono.degree(u)
        assert np.array_equal(sharded.neighbors(u), mono.neighbors(u))
        assert sharded.has_edge(u, v) == mono.has_edge(u, v)

    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(data=st.data(), edges=edge_lists())
    @pytest.mark.parametrize("exec_name,make_executor", EXECUTORS,
                             ids=[e[0] for e in EXECUTORS])
    def test_batch_kernels(self, inner, partitioner, exec_name, make_executor,
                           data, edges):
        src, dst, n = edges
        mono, sharded = _pair(inner, partitioner, src, dst, n)
        k = data.draw(st.integers(0, 40))
        us = np.asarray(
            data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)),
            dtype=np.int64,
        )
        got = batch_neighbors(sharded, us, make_executor())
        want = batch_neighbors(mono, us, make_executor())
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        qs = np.asarray(
            data.draw(
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    min_size=k, max_size=k,
                )
            ),
            dtype=np.int64,
        ).reshape(k, 2)
        assert np.array_equal(
            batch_edge_existence(sharded, qs, make_executor()),
            batch_edge_existence(mono, qs, make_executor()),
        )


class TestCostParity:
    """Sharded-over-packed keeps the monolithic per-element decode
    charge: same column width, same simulated batch cost."""

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_batch_neighbors_cost(self, sorted_edges, rng, p):
        src, dst, n = sorted_edges
        mono, sharded = _pair("packed", "range", src, dst, n, shards=4)
        assert sharded.column_width == mono.column_width
        us = rng.integers(0, n, 300)
        m1, m2 = SimulatedMachine(p), SimulatedMachine(p)
        batch_neighbors(mono, us, m1)
        batch_neighbors(sharded, us, m2)
        assert m1.elapsed_ns() == m2.elapsed_ns()


class TestStoreSurface:
    def test_satisfies_protocol(self, sorted_edges):
        src, dst, n = sorted_edges
        sharded = open_store("sharded", src, dst, n, shards=3)
        assert isinstance(sharded, GraphStore)

    def test_degrees_matches_monolithic(self, sorted_edges):
        src, dst, n = sorted_edges
        mono, sharded = _pair("csr", "hash", src, dst, n)
        assert np.array_equal(sharded.degrees(), mono.degrees())

    def test_memory_includes_shards_and_routing(self, sorted_edges):
        src, dst, n = sorted_edges
        sharded = open_store("sharded", src, dst, n, shards=4, partitioner="range")
        assert sharded.memory_bytes() == (
            sum(s.memory_bytes() for s in sharded.shards)
            + sharded.partitioner.nbytes()
        )

    def test_scatter_counts(self, sorted_edges):
        src, dst, n = sorted_edges
        sharded = open_store("sharded", src, dst, n, shards=4)
        before = sharded.scatter_counts()
        assert before.sum() == 0
        sharded.neighbors_batch(np.arange(n))
        after = sharded.scatter_counts()
        assert after.sum() >= 1

    def test_row_cache_wrapping(self, sorted_edges):
        src, dst, n = sorted_edges
        mono, sharded = _pair(
            "packed", "range", src, dst, n, cache_elements=64
        )
        assert all(isinstance(s, RowCache) for s in sharded.shards)
        us = np.tile(np.arange(min(8, n)), 20)
        flat, offs = sharded.neighbors_batch(us)
        want_flat, want_offs = mono.neighbors_batch(us)
        assert np.array_equal(flat, want_flat)
        assert np.array_equal(offs, want_offs)

    def test_out_of_range_queries_rejected(self, sorted_edges):
        src, dst, n = sorted_edges
        sharded = open_store("sharded", src, dst, n, shards=2)
        with pytest.raises(QueryError):
            sharded.neighbors(n)
        with pytest.raises(QueryError):
            sharded.degree(-1)
        with pytest.raises(QueryError):
            sharded.neighbors_batch(np.array([0, n]))
        with pytest.raises(QueryError):
            sharded.neighbors_batch(np.zeros((2, 2), dtype=np.int64))

    def test_empty_batch(self, sorted_edges):
        src, dst, n = sorted_edges
        sharded = open_store("sharded", src, dst, n, shards=2)
        flat, offs = sharded.neighbors_batch(np.zeros(0, dtype=np.int64))
        assert flat.shape == (0,) and np.array_equal(offs, [0])


class TestConstruction:
    def test_unsorted_input_rejected_without_sort(self):
        src = np.array([5, 0, 3], dtype=np.int64)
        dst = np.array([1, 1, 1], dtype=np.int64)
        with pytest.raises(NotSortedError):
            build_sharded_store(src, dst, 6, shards=2)
        store = build_sharded_store(src, dst, 6, shards=2, sort=True)
        assert store.num_edges == 3

    def test_shard_count_validation(self):
        with pytest.raises(ValidationError):
            build_sharded_store(
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 4,
                shards=0,
            )

    def test_mismatched_partitioner_rejected(self, sorted_edges):
        src, dst, n = sorted_edges
        mono = open_store("csr", src, dst, n)
        with pytest.raises(ValidationError):
            ShardedStore(RangePartitioner.even(n, 2), [mono])

    def test_mixed_shard_kinds_rejected(self, sorted_edges):
        src, dst, n = sorted_edges
        a = open_store("csr", src, dst, n)
        b = open_store("packed", src, dst, n)
        with pytest.raises(ValidationError):
            ShardedStore(RangePartitioner.even(n, 2), [a, b])

    def test_simulated_machine_builds_on_groups(self, sorted_edges):
        """On a SimulatedMachine the shards build on split sub-machines
        and the parent clock advances by the slowest group only."""
        src, dst, n = sorted_edges
        machine = SimulatedMachine(8)
        machine.tracer = Tracer()
        build_sharded_store(src, dst, n, shards=4, executor=machine)
        assert machine.elapsed_ns() > 0
        roots = {s.name for s in machine.tracer.spans() if s.parent_id is None}
        assert "shard:build" in roots
        # critical path: slower than nothing, but far below the sum of
        # four serial builds on the full machine
        solo = SimulatedMachine(8)
        open_store("packed", src, dst, n, executor=solo)
        assert machine.elapsed_ns() < 4 * solo.elapsed_ns()

    def test_machine_split_and_absorb(self):
        machine = SimulatedMachine(8, CostModel(read_ns=1))
        groups = machine.split(4)
        assert [g.p for g in groups] == [2, 2, 2, 2]
        groups[0].serial(lambda ctx: ctx.charge(Cost(reads=100)), label="x")
        groups[2].serial(lambda ctx: ctx.charge(Cost(reads=250)), label="y")
        duration = machine.absorb(groups, label="test")
        assert duration == 250.0
        assert machine.elapsed_ns() == 250.0


class TestPersistence:
    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    @pytest.mark.parametrize("inner", ["packed", "gap"])
    def test_save_load_round_trip(self, tmp_path, sorted_edges, inner, partitioner):
        src, dst, n = sorted_edges
        sharded = open_store(
            "sharded", src, dst, n, shards=3, partitioner=partitioner, inner=inner
        )
        path = tmp_path / "sharded.npz"
        save_store(sharded, path)
        clone = load_store(path)
        assert clone.partitioner == sharded.partitioner
        assert clone.num_edges == sharded.num_edges
        us = np.random.default_rng(7).integers(0, n, 200)
        f1, o1 = sharded.neighbors_batch(us)
        f2, o2 = clone.neighbors_batch(us)
        assert np.array_equal(f1, f2) and np.array_equal(o1, o2)

    def test_unpacked_shards_refuse_save(self, tmp_path, sorted_edges):
        src, dst, n = sorted_edges
        sharded = open_store("sharded", src, dst, n, shards=2, inner="csr")
        with pytest.raises(ValidationError):
            save_store(sharded, tmp_path / "x.npz")


class TestEmptyShards:
    """Regression: partitions where some shards receive zero edges.

    Concentrating every edge on one source node makes range.balanced
    put the whole graph in one shard and leaves the rest empty; hash
    does the same since all sources share a hash bucket.  Queries must
    still scatter-gather correctly through the empty shards.
    """

    @pytest.fixture
    def hot_node(self):
        n, hot = 40, 17
        dst = np.arange(0, n, 2, dtype=np.int64)
        src = np.full(dst.shape, hot, dtype=np.int64)
        return src, dst, n, hot

    @pytest.mark.parametrize("partitioner", PARTITIONERS)
    def test_zero_edge_shards_query_correctly(self, hot_node, partitioner):
        src, dst, n, hot = hot_node
        mono = open_store("packed", src, dst, n)
        sharded = open_store(
            "sharded", src, dst, n,
            shards=4, partitioner=partitioner, inner="packed",
        )
        empties = [s for s in sharded.shards if s.num_edges == 0]
        assert empties, f"{partitioner} partition left no empty shard"
        assert sharded.num_edges == mono.num_edges
        for u in (0, hot, n - 1):
            assert np.array_equal(sharded.neighbors(u), mono.neighbors(u))
            assert sharded.degree(u) == mono.degree(u)
        us = np.arange(n, dtype=np.int64)
        flat, offs = sharded.neighbors_batch(us)
        mflat, moffs = mono.neighbors_batch(us)
        assert np.array_equal(offs, moffs)
        assert np.array_equal(
            np.asarray(flat, np.int64), np.asarray(mflat, np.int64)
        )
        assert sharded.has_edge(hot, 0) and not sharded.has_edge(0, hot)

    def test_balanced_range_cuts_with_empty_tail(self, hot_node):
        src, dst, n, _ = hot_node
        part = RangePartitioner.balanced(src, n, 4)
        sizes = [
            int(((src >= lo) & (src < hi)).sum())
            for lo, hi in zip(part.bounds[:-1], part.bounds[1:])
        ]
        assert 0 in sizes
        assert sum(sizes) == len(src)
