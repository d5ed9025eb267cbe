"""Interleaved writes, batch reads and compactions against a set model.

The batch read path serves three kinds of key differently — clean
(straight off the segment), dirty with a memoised row, dirty without —
and splices them into one reply; compaction merges the memtable into
the scanned base as arrays.  Both must agree with a dict-of-sets oracle
under any interleaving, over one segment and over several (after a
``flush``), and the compacted segment must be the very bytes a
from-scratch ``open_store("compact", ...)`` of the oracle's edges gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import open_store
from repro.lsm import DeltaMemtable, LsmStore, build_lsm_store

N = 12
INNER_OPTS = {"segment_bytes": 48, "codecs": "fixed,varint"}

node = st.integers(0, N - 1)
OPS = st.one_of(
    st.tuples(st.sampled_from(["insert", "insert", "delete", "probe"]), node, node),
    st.tuples(st.just("read"), st.lists(node, max_size=14)),
    st.tuples(st.just("read"), st.lists(node, min_size=6, max_size=14)),
    st.tuples(st.sampled_from(["reopen", "reopen", "compact", "flush"])),
)


def _oracle_edges(model):
    pairs = sorted((u, v) for u, vs in model.items() for v in vs)
    return (np.asarray([p[0] for p in pairs], dtype=np.int64),
            np.asarray([p[1] for p in pairs], dtype=np.int64))


def _reopen(store):
    """What ``load`` does: same segments and memtable entries, no memos."""
    return LsmStore(
        store.num_nodes, store.segments, inner=store.inner,
        inner_opts=store.inner_opts,
        memtable=DeltaMemtable.from_entries(*store.memtable.entries()),
        num_edges=store.num_edges,
    )


def _check_read(store, model, keys):
    flat, offs = store.neighbors_batch(np.asarray(keys, dtype=np.int64))
    assert flat.dtype == np.int64 and offs.dtype == np.int64
    assert offs.shape[0] == len(keys) + 1 and offs[0] == 0
    for i, u in enumerate(keys):
        assert flat[offs[i]:offs[i + 1]].tolist() == sorted(model.get(u, ()))
    assert offs[-1] == flat.shape[0]


def _check_compacted(store, model):
    """One segment, byte-identical to a from-scratch build."""
    assert len(store.segments) == 1 and len(store.memtable) == 0
    src, dst = _oracle_edges(model)
    fresh = open_store("compact", src, dst, N, **INNER_OPTS)
    got, want = store.segments[0].npz_payload(), fresh.npz_payload()
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key
    assert store.num_edges == src.shape[0]


def _run(ops, seed_edges, *, allow_flush):
    model: dict[int, set] = {}
    for u, v in seed_edges:
        model.setdefault(u, set()).add(v)
    src, dst = _oracle_edges(model)
    store = build_lsm_store(src, dst, N, inner="compact", **INNER_OPTS)
    for op in ops:
        kind = op[0]
        if kind == "insert":
            _, u, v = op
            assert store.insert_edge(u, v) == (v not in model.get(u, ()))
            model.setdefault(u, set()).add(v)
        elif kind == "delete":
            _, u, v = op
            assert store.delete_edge(u, v) == (v in model.get(u, ()))
            model.get(u, set()).discard(v)
        elif kind == "probe":  # fills the base-row memo of a clean or dirty row
            _, u, v = op
            assert store.has_edge(u, v) == (v in model.get(u, ()))
        elif kind == "read":
            _check_read(store, model, op[1])
        elif kind == "reopen":
            store = _reopen(store)
        elif kind == "flush":
            if allow_flush:
                store.flush()
        else:
            store.compact()
            _check_compacted(store, model)
        assert store.num_edges == sum(len(vs) for vs in model.values())
    _check_read(store, model, list(range(N)) + [0, N - 1, 0])
    store.compact()
    _check_compacted(store, model)


SEED_EDGES = st.lists(st.tuples(node, node), max_size=60)


@settings(max_examples=120, deadline=None)
@given(st.lists(OPS, max_size=50), SEED_EDGES)
def test_single_segment_interleaving(ops, seed_edges):
    _run(ops, seed_edges, allow_flush=False)


@settings(max_examples=80, deadline=None)
@given(st.lists(OPS, max_size=50), SEED_EDGES)
def test_multi_segment_interleaving(ops, seed_edges):
    """``flush`` appends segments: reads take the per-row path, compaction
    the per-row merge, until the next compaction folds them to one."""
    _run(ops, seed_edges, allow_flush=True)


def test_batch_mixing_every_kind_of_key():
    """Clean, dirty-memoised and dirty-unmemoised keys, with duplicates,
    in one batch over one segment."""
    n = 24
    keys = np.unique(np.random.default_rng(5).integers(0, n * n, 150))
    model: dict[int, set] = {}
    for u, v in zip((keys // n).tolist(), (keys % n).tolist()):
        model.setdefault(u, set()).add(v)
    store = build_lsm_store(keys // n, keys % n, n, inner="compact", **INNER_OPTS)
    for u, v in ((3, 3), (3, 4), (7, 1), (11, 0), (20, 20)):
        store.insert_edge(u, v)
        model.setdefault(u, set()).add(v)
    for u in (5, 11):
        v = min(model[u])
        store.delete_edge(u, v)
        model[u].discard(v)
    store = _reopen(store)  # rows 3, 5, 7, 11, 20 dirty, nothing memoised
    _check_read(store, model, [3, 7])  # memoises the merged rows of 3 and 7
    store.has_edge(1, 0)  # memoises the base row of clean row 1
    store.insert_edge(7, 2)  # 7: merged memo dropped, base memo kept
    model[7].add(2)
    assert set(store._merged_cache) == {3} and {1, 3, 7} <= set(store._base_cache)
    batch = [0, 3, 5, 1, 3, 11, 2, 7, 7, 20, 23, 5, 0, 11]
    _check_read(store, model, batch)
    _check_read(store, model, batch[::-1])
    _check_read(store, model, [5])
    _check_read(store, model, [])


@pytest.mark.parametrize("v,present", [(0, False), (4, True), (9, False), (23, True)])
def test_base_membership_is_a_binary_search(v, present):
    store = build_lsm_store(
        np.full(3, 2), np.asarray([4, 17, 23]), 24, inner="compact"
    )
    assert store._in_base(2, v) is present
    # the memoised row owns its bytes: it pins no decode buffer
    assert store._base_cache[2].base is None
