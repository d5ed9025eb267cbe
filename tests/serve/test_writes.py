"""Serving writes: WriteRequest routing, cache invalidation, metrics.

Writes bypass the coalescer and apply inline at submit, so these
tests drive :class:`GraphQueryServer` over an :class:`LsmStore` and
check read-your-writes consistency (through the row cache), the
write-side metric counters, and workload mixing determinism.
"""

import numpy as np
import pytest

from repro import open_store
from repro.errors import ValidationError
from repro.lsm import LsmStore, build_lsm_store
from repro.serve import (
    DONE,
    EdgeRequest,
    GraphQueryServer,
    ManualClock,
    NeighborsRequest,
    ServerConfig,
    WriteRequest,
    replay,
    synthetic_workload,
)


@pytest.fixture
def edges(rng):
    n = 50
    keys = np.unique(rng.integers(0, n * n, 400))
    return keys // n, keys % n, n


@pytest.fixture
def lsm(edges):
    src, dst, n = edges
    return build_lsm_store(src, dst, n)


class TestWriteRouting:
    def test_write_applies_inline(self, lsm):
        server = GraphQueryServer(lsm, clock=ManualClock())
        assert not lsm.has_edge(0, 49)
        slot = server.submit(WriteRequest(op="insert", u=0, v=49))
        # resolved at submit time, no drain needed
        assert slot.status == DONE
        assert slot.result() is True
        assert lsm.has_edge(0, 49)

    def test_noop_write_returns_false(self, lsm, edges):
        src, dst, _ = edges
        server = GraphQueryServer(lsm, clock=ManualClock())
        slot = server.submit(
            WriteRequest(op="insert", u=int(src[0]), v=int(dst[0]))
        )
        assert slot.result() is False
        snap = server.snapshot()
        assert snap.writes == 1
        assert snap.write_noops == 1

    def test_delete_then_read(self, lsm, edges):
        src, dst, _ = edges
        u, v = int(src[0]), int(dst[0])
        server = GraphQueryServer(lsm, config=ServerConfig(max_batch_size=1),
                                   clock=ManualClock())
        assert server.submit(WriteRequest(op="delete", u=u, v=v)).result() is True
        read = server.submit(EdgeRequest(u=u, v=v))
        server.drain()
        assert read.result() is False

    def test_unknown_op_rejected(self, lsm):
        server = GraphQueryServer(lsm, clock=ManualClock())
        with pytest.raises(ValidationError):
            server.submit(WriteRequest(op="upsert", u=0, v=1))

    def test_read_only_store_rejects_writes(self, edges):
        src, dst, n = edges
        server = GraphQueryServer(
            open_store("packed", src, dst, n), clock=ManualClock()
        )
        with pytest.raises(ValidationError, match="does not support writes"):
            server.submit(WriteRequest(op="insert", u=0, v=1))

    def test_writes_do_not_pollute_read_metrics(self, lsm):
        server = GraphQueryServer(lsm, config=ServerConfig(max_batch_size=1),
                                   clock=ManualClock())
        server.submit(WriteRequest(op="insert", u=1, v=2))
        server.submit(NeighborsRequest(node=1))
        server.drain()
        snap = server.snapshot()
        assert snap.writes == 1
        assert snap.accepted == 1  # reads only
        assert snap.completed == 1


class TestReadYourWrites:
    def test_cache_invalidated_on_write(self, lsm):
        server = GraphQueryServer(
            lsm, config=ServerConfig(max_batch_size=1, cache_elements=10_000),
            clock=ManualClock()
        )
        v = next(x for x in range(50) if not lsm.has_edge(2, x))
        before = server.submit(NeighborsRequest(node=2))
        server.drain()
        server.submit(WriteRequest(op="insert", u=2, v=v))
        after = server.submit(NeighborsRequest(node=2))
        server.drain()
        assert v not in before.result().tolist()
        assert v in after.result().tolist()
        assert server.row_cache.stats().invalidations >= 1

    def test_stale_row_would_be_served_without_invalidate(self, lsm):
        """Regression guard for the staleness bug invalidate() fixes:
        a cached row survives a write unless the server drops it."""
        from repro.query.rowcache import RowCache

        cache = RowCache(lsm, 10_000)
        v = next(x for x in range(50) if not lsm.has_edge(2, x))
        stale = cache.neighbors(2)
        lsm.insert_edge(2, v)
        assert np.array_equal(cache.neighbors(2), stale)  # stale!
        assert cache.invalidate([2]) == 1
        assert v in cache.neighbors(2).tolist()

    def test_compaction_under_cache_stays_bit_exact(self, lsm):
        lsm.compact_watermark = 8
        server = GraphQueryServer(
            lsm, config=ServerConfig(max_batch_size=1, cache_elements=10_000),
            clock=ManualClock()
        )
        rng = np.random.default_rng(4)
        for _ in range(40):
            server.submit(
                WriteRequest(
                    op="insert",
                    u=int(rng.integers(0, 50)),
                    v=int(rng.integers(0, 50)),
                )
            )
            u = int(rng.integers(0, 50))
            slot = server.submit(NeighborsRequest(node=u))
            server.drain()
            assert np.array_equal(slot.result(), lsm.segments and lsm.neighbors(u))
        assert server.snapshot().compactions >= 1


class TestWriteMetrics:
    def test_snapshot_write_fields(self, lsm):
        lsm.compact_watermark = 5
        server = GraphQueryServer(lsm, clock=ManualClock())
        applied = 0
        for v in range(12):
            slot = server.submit(WriteRequest(op="insert", u=0, v=v))
            applied += bool(slot.result())
        snap = server.snapshot()
        assert snap.writes == 12
        assert snap.writes - snap.write_noops == applied
        assert snap.write_ns_p50 > 0
        assert snap.write_ns_p99 >= snap.write_ns_p50
        assert snap.compactions == lsm.stats().compactions >= 1
        assert snap.memtable_edges == len(lsm.memtable)

    def test_write_fields_zero_for_read_only_traffic(self, lsm):
        server = GraphQueryServer(lsm, config=ServerConfig(max_batch_size=1),
                                   clock=ManualClock())
        server.submit(NeighborsRequest(node=0))
        server.drain()
        snap = server.snapshot()
        assert snap.writes == 0
        assert snap.write_ns_p50 == 0.0


class TestMixedWorkload:
    def test_mix_fractions_and_determinism(self, edges):
        src, dst, n = edges
        wl = synthetic_workload(
            2000, n, edges=(src, dst), write_fraction=0.1, seed=7
        )
        writes = [r for _, r in wl if isinstance(r, WriteRequest)]
        assert 120 <= len(writes) <= 280
        assert any(w.op == "delete" for w in writes)
        assert any(w.op == "insert" for w in writes)
        again = synthetic_workload(
            2000, n, edges=(src, dst), write_fraction=0.1, seed=7
        )
        assert [(t, r.key) for t, r in wl] == [(t, r.key) for t, r in again]

    def test_read_stream_unchanged_by_write_knob(self, edges):
        """write_fraction=0 must consume the exact pre-write RNG
        sequence — read-only workloads stay byte-stable per seed."""
        src, dst, n = edges
        base = synthetic_workload(500, n, edges=(src, dst), seed=3)
        mixed = synthetic_workload(
            500, n, edges=(src, dst), seed=3, write_fraction=0.15
        )
        assert len(base) == len(mixed)
        for (tb, rb), (tm, rm) in zip(base, mixed):
            assert tb == tm
            if not isinstance(rm, WriteRequest):
                assert rb.key == rm.key

    def test_replay_mixed_workload_end_to_end(self, edges):
        src, dst, n = edges
        store = build_lsm_store(src, dst, n, compact_watermark=64)
        server = GraphQueryServer(
            store, config=ServerConfig(cache_elements=4096), clock=ManualClock()
        )
        wl = synthetic_workload(
            1500, n, edges=(src, dst), write_fraction=0.1, seed=11
        )
        slots = replay(server, wl)
        assert all(s.status == DONE for s in slots)
        snap = server.snapshot()
        n_writes = sum(isinstance(r, WriteRequest) for _, r in wl)
        assert snap.writes == n_writes
        assert snap.completed == len(wl) - n_writes
        # served rows reflect the final post-write state
        for (_, req), slot in zip(wl, slots):
            if isinstance(req, NeighborsRequest):
                last = slot
        assert isinstance(last.result(), np.ndarray)

    def test_workload_validation(self, edges):
        _, _, n = edges
        with pytest.raises(ValidationError):
            synthetic_workload(10, n, write_fraction=1.5)
        with pytest.raises(ValidationError):
            synthetic_workload(10, n, delete_fraction=-0.1)


class TestLsmSegmentRouting:
    def test_server_unwraps_rowcache_for_write_target(self, lsm):
        server = GraphQueryServer(lsm, config=ServerConfig(cache_elements=1024),
                                   clock=ManualClock())
        assert server._write_target is lsm
