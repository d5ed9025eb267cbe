"""Interleaved writes, batch reads and compactions against a set model.

The batch read path serves three kinds of key differently — clean
(straight off the segment), dirty with a materialised row, dirty without
(a memtable that arrived populated) — and splices them into one reply;
a write splices its row; compaction merges the memtable into the scanned
base as arrays.  All must agree with a dict-of-sets oracle (and the
memtable with a model of its entries) under any interleaving, and the
compacted base must be the very bytes a from-scratch ``open_store`` of
the oracle's edges gives.  What the row memo saves is pinned as exact
counts of the base's ``_decode_rows`` calls, not by the memo's name.
"""

import io
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import open_store
from repro.csr.compact import CompactStore
from repro.lsm import DeltaMemtable, LsmStore, build_lsm_store

N = 12
INNER_OPTS = {"segment_bytes": 48, "codecs": "fixed,varint"}


@contextmanager
def counted_decodes(cls=CompactStore):
    """The key batch of every ``_decode_rows`` call on a *cls* segment."""
    calls, inner = [], cls._decode_rows

    def counting(self, keys):
        calls.append(keys.tolist())
        return inner(self, keys)

    cls._decode_rows = counting
    try:
        yield calls
    finally:
        cls._decode_rows = inner

node = st.integers(0, N - 1)
OPS = st.one_of(
    st.tuples(st.sampled_from(["insert", "insert", "delete", "probe"]), node, node),
    st.tuples(st.just("read"), st.lists(node, max_size=14)),
    st.tuples(st.just("read"), st.lists(node, min_size=6, max_size=14)),
    st.tuples(st.sampled_from(["reopen", "reopen", "compact"])),
)


def _oracle_edges(model):
    pairs = sorted((u, v) for u, vs in model.items() for v in vs)
    return (np.asarray([p[0] for p in pairs], dtype=np.int64),
            np.asarray([p[1] for p in pairs], dtype=np.int64))


def _reopen(store):
    """What ``load`` does: same base and memtable entries, no memos
    (``save`` → ``load`` itself where the base is packed)."""
    if store.inner == "packed":
        file = io.BytesIO()
        store.save(file)
        file.seek(0)
        return LsmStore.load(file)
    return LsmStore(
        store.num_nodes, store.segments, inner=store.inner,
        inner_opts=store.inner_opts,
        memtable=DeltaMemtable.from_entries(*store.memtable.entries()),
        num_edges=store.num_edges,
    )


def _model_write(model, delta, kind, u, v) -> bool:
    """Apply a checked write to the edge-set *model* and to *delta*, the
    model of the memtable: ``(u, v) -> alive``.  A re-insert drops its
    tombstone; a delete of a memtable-only insert drops the insert."""
    row = model.setdefault(u, set())
    if (v in row) == (kind == "insert"):
        return False
    (row.add if kind == "insert" else row.discard)(v)
    if delta.get((u, v)) is (kind == "delete"):
        del delta[u, v]
    else:
        delta[u, v] = kind == "insert"
    return True


def _check_memtable(store, model, delta):
    us, vs, alive = store.memtable.entries()
    assert list(zip(us.tolist(), vs.tolist(), alive.tolist())) == sorted(
        (u, v, a) for (u, v), a in delta.items())
    assert store.stats().tombstones == sum(not a for a in delta.values())
    assert store.num_edges == sum(len(vs) for vs in model.values())


def _check_read(store, model, keys):
    flat, offs = store.neighbors_batch(np.asarray(keys, dtype=np.int64))
    assert flat.dtype == np.int64 and offs.dtype == np.int64
    assert offs.shape[0] == len(keys) + 1 and offs[0] == 0
    for i, u in enumerate(keys):
        assert flat[offs[i]:offs[i + 1]].tolist() == sorted(model.get(u, ()))
    assert offs[-1] == flat.shape[0]


def _check_compacted(store, model):
    """One base, byte-identical to a from-scratch build."""
    assert len(store.segments) == 1 and len(store.memtable) == 0
    src, dst = _oracle_edges(model)
    fresh = open_store(store.inner, src, dst, N, **store.inner_opts)
    got, want = store.segments[0].npz_payload(), fresh.npz_payload()
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key
    assert store.num_edges == src.shape[0]


def _run(ops, seed_edges, *, inner="compact", opts=INNER_OPTS):
    model: dict[int, set] = {}
    for u, v in seed_edges:
        model.setdefault(u, set()).add(v)
    delta: dict[tuple, bool] = {}
    src, dst = _oracle_edges(model)
    store = build_lsm_store(src, dst, N, inner=inner, **opts)
    for op in ops:
        kind = op[0]
        if kind in ("insert", "delete"):
            _, u, v = op
            write = store.insert_edge if kind == "insert" else store.delete_edge
            assert write(u, v) == _model_write(model, delta, kind, u, v)
        elif kind == "probe":  # keeps nothing, whatever the row's state
            _, u, v = op
            assert store.has_edge(u, v) == (v in model.get(u, ()))
        elif kind == "read":
            _check_read(store, model, op[1])
        elif kind == "reopen":
            store = _reopen(store)
        else:
            store.compact()
            delta = {}
            _check_compacted(store, model)
        _check_memtable(store, model, delta)
    _check_read(store, model, list(range(N)) + [0, N - 1, 0])
    store.compact()
    _check_compacted(store, model)


SEED_EDGES = st.lists(st.tuples(node, node), max_size=60)


@settings(max_examples=120, deadline=None)
@given(st.lists(OPS, max_size=50), SEED_EDGES)
def test_single_segment_interleaving(ops, seed_edges):
    _run(ops, seed_edges)


#: the case the second (base-row) memo existed for: delete a base edge,
#: re-insert it, delete it again — tombstone, nothing, tombstone
_REDELETE = [("delete", 1, 2), ("insert", 1, 2), ("delete", 1, 2)]


@settings(max_examples=80, deadline=None)
@given(st.lists(OPS, max_size=50), SEED_EDGES)
@example(_REDELETE + [("reopen",)] + _REDELETE + [("read", [1])], [(1, 2), (1, 5)])
@example(_REDELETE[:1] + [("reopen",)] + _REDELETE[1:] + [("reopen",)]
         + _REDELETE[1:] + [("compact",)], [(1, 2), (3, 3)])
def test_packed_interleaving_through_save_and_load(ops, seed_edges):
    """Over a packed base "reopen" is a real ``save`` → ``load``."""
    _run(ops, seed_edges, inner="packed", opts={})


def test_alive_entry_over_a_base_edge_is_dropped_on_first_touch():
    """A file written before re-inserts dropped their tombstone can hold
    an alive entry for an edge its base holds too; deleting that edge
    must leave a tombstone, not uncover the base copy."""
    base = open_store("compact", np.asarray([1, 1]), np.asarray([2, 5]), N, **INNER_OPTS)
    store = LsmStore(N, [base], inner="compact", inner_opts=INNER_OPTS,
                     memtable=DeltaMemtable.from_entries([1, 1], [2, 7], [True, True]))
    assert store.num_edges == 3 and store.neighbors(1).tolist() == [2, 5, 7]
    assert store.delete_edge(1, 2) and store.delete_edge(1, 7)
    assert store.stats().tombstones == 1 and len(store.memtable) == 1
    store.compact()
    assert store.neighbors(1).tolist() == [5] and store.num_edges == 1


def test_batch_mixing_every_kind_of_key():
    """Clean, dirty-materialised and dirty-unmaterialised keys, with
    duplicates, in one batch over one segment."""
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
    store = _reopen(store)  # rows 3, 5, 20 dirty (7 and 11 ended clean), none materialised
    with counted_decodes() as calls:
        _check_read(store, model, [3, 7])  # materialises row 3; 7 is clean
        assert sorted(calls) == [[3], [7]]
        store.has_edge(1, 0)  # a clean probe: decoded, bisected, not kept
        del calls[:]
        store.insert_edge(7, 2)  # the first write to row 7 decodes it ...
        assert calls == [[7]]
        store.insert_edge(7, 1)  # ... and no later one, applied or not:
        store.delete_edge(3, 3)  # a write to a materialised row is a splice
        store.insert_edge(3, 3)
        assert calls == [[7]]
        del calls[:]
        model[7].add(2)
        batch = [0, 3, 5, 1, 3, 11, 2, 7, 7, 20, 23, 5, 0, 11]
        _check_read(store, model, batch)
        # the clean keys in one segment batch, 5 and 20 one first touch each
        assert sorted(calls) == [[0, 1, 2, 11, 23], [5], [20]]
        del calls[:]
        _check_read(store, model, batch[::-1])
        _check_read(store, model, [5])
        assert calls == [[0, 1, 2, 11, 23]]
    _check_read(store, model, [])


@pytest.mark.parametrize("v,present", [(0, False), (4, True), (9, False), (23, True)])
def test_base_membership_is_a_binary_search(v, present):
    store = build_lsm_store(
        np.full(3, 2), np.asarray([4, 17, 23]), 24, inner="compact"
    )
    resident = store.memory_bytes()
    assert store.has_edge(2, v) is present
    assert store.memory_bytes() == resident  # a probe keeps nothing
    write = store.insert_edge if present else store.delete_edge
    assert write(2, v) is False  # a no-op write materialises its row all the same
    # ... as an array owning its 3 elements: it pins no decode buffer
    assert store.memory_bytes() == resident + 3 * 8
    with counted_decodes() as calls:
        assert store.has_edge(2, v) is present
        assert (store.delete_edge if present else store.insert_edge)(2, v) is True
        assert store.has_edge(2, v) is not present
        assert calls == []


def test_clean_probes_grow_nothing():
    """Read-only ``has_edge`` traffic over a write-free overlay (the query
    layer's scalar path) must not accumulate one decoded row per source."""
    rng = np.random.default_rng(11)
    n = 1_500
    keys = np.unique(rng.integers(0, n * n, 9_000))
    store = build_lsm_store(keys // n, keys % n, n, inner="compact")
    resident = store.memory_bytes()
    for u in range(1_000):
        assert store.has_edge(u, 7) == bool(np.isin(u * n + 7, keys))
    assert store.memory_bytes() == resident


def _zipf_writes(n, count, seed):
    rng = np.random.default_rng(seed)
    us = np.minimum(rng.zipf(1.3, count) - 1, n - 1)
    return zip(us.tolist(), rng.integers(0, n, count).tolist(), (rng.random(count) < 0.3).tolist())


def test_each_written_row_is_decoded_once_per_epoch():
    """A seeded 2,000-write Zipf stream, compacted every 500 writes: the
    first write to a row in an epoch decodes it from the segment, every
    later write to it (applied or not) and every read of it none."""
    n = 400
    keys = np.unique(np.random.default_rng(3).integers(0, n * n, 6_000))
    store = build_lsm_store(keys // n, keys % n, n, inner="compact", segment_bytes=2048)
    written: set = set()
    with counted_decodes() as calls:
        for i, (u, v, delete) in enumerate(_zipf_writes(n, 2_000, seed=9)):
            (store.delete_edge if delete else store.insert_edge)(u, v)
            written.add(u)
            if i % 500 == 499:
                dirty = store.memtable.dirty_nodes()
                assert dirty.size and store.neighbors_batch(dirty)[1][-1] > 0
                assert sorted(calls) == [[u] for u in sorted(written)]
                store.compact()
                written.clear()
                del calls[:]


def test_a_reply_keeps_its_contents_across_writes():
    """Rows handed out before a write are not the arrays the store goes
    on to serve: neither a later write nor the caller's own scribbling
    shows through."""
    store = build_lsm_store(np.full(3, 2), np.asarray([4, 17, 23]), 24, inner="compact")
    store.insert_edge(2, 9)  # row 2 is materialised and dirty
    row = store.neighbors(2)
    flat, offs = store.neighbors_batch(np.asarray([1, 2, 2]))
    before = (row.tobytes(), flat.tobytes(), offs.tobytes())
    store.insert_edge(2, 5)
    store.delete_edge(2, 23)
    assert (row.tobytes(), flat.tobytes(), offs.tobytes()) == before
    for reply in (row, flat):
        if reply.flags.writeable:
            reply[:] = -1
    assert store.neighbors(2).tolist() == [4, 5, 9, 17]
    assert store.neighbors_batch(np.asarray([2]))[0].tolist() == [4, 5, 9, 17]
