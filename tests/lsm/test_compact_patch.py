"""Compaction by patching: a compact segment re-encodes only its written rows.

``CompactStore.patched`` copies the varint bytes of every clean row into
the new segments, encodes the written rows in one batch and measures both
default codecs from the bytes.  Whatever the plan, the candidate set and
the rows written, the result must be the very bytes ``build_compact_csr``
gives for the patched edge set, and its rows those of a dict-of-sets
model.  Small ``segment_bytes`` cut many segments, so fixed and varint
winners mix.  Which path ``LsmStore.compact`` takes — the patch or the
rebuild — is pinned by counting calls, for each kind of segment list.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import open_store
from repro.csr.compact import CompactStore, build_compact_csr
from repro.csr.packed import BitPackedCSR
from repro.errors import ValidationError
from repro.lsm import DeltaMemtable, LsmStore, build_lsm_store, writable_overlay

#: the default set both ways round, each codec alone (the decode fallback
#: for ``fixed``), and a set with a codec the splice cannot measure
CODECS = (None, "varint,fixed", "fixed", "varint", "zeta2,varint")


def _graph(seed: int, n: int) -> dict[int, set]:
    """A model mixing runs of small gaps near small ids (varint's case)
    with rows of a few scattered ids (fixed's case)."""
    rng = np.random.default_rng(seed)
    model = {}
    for u in range(n):
        if rng.random() < 0.4:
            row = int(rng.integers(0, 64)) + np.cumsum(rng.integers(1, 4, int(rng.integers(8, 40))))
        else:
            row = rng.integers(0, n, int(rng.integers(0, 3)))
        model[u] = set(row[row < n].tolist())
    return model


def _edges(model):
    pairs = sorted((u, v) for u, vs in model.items() for v in vs)
    return (np.asarray([p[0] for p in pairs], dtype=np.int64),
            np.asarray([p[1] for p in pairs], dtype=np.int64))


def _lsm(model, n, codecs, segment_bytes) -> LsmStore:
    return build_lsm_store(*_edges(model), n, inner="compact",
                           codecs=codecs, segment_bytes=segment_bytes)


def _check(lsm, model, n):
    """One segment, byte-identical to a build of the model; model rows."""
    assert len(lsm.segments) == 1 and len(lsm.memtable) == 0
    want = build_compact_csr(*_edges(model), n, **lsm.inner_opts).npz_payload()
    got = lsm.segments[0].npz_payload()
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key
    flat, offs = lsm.neighbors_batch(np.arange(n, dtype=np.int64))
    for u in range(n):
        assert flat[offs[u]:offs[u + 1]].tolist() == sorted(model.get(u, ()))
    assert lsm.num_edges == sum(len(vs) for vs in model.values())


def _write(lsm, model, u, v, insert: bool):
    assert (lsm.insert_edge if insert else lsm.delete_edge)(u, v) == (
        (v not in model[u]) if insert else (v in model[u]))
    (model[u].add if insert else model[u].discard)(v)


def _empty(lsm, model, u):
    for v in sorted(model[u]):
        _write(lsm, model, u, v, insert=False)


def _fill(lsm, model, u, first):
    for v in range(first, min(first + 12, lsm.num_nodes)):
        _write(lsm, model, u, v, insert=True)


def _reopen(lsm) -> LsmStore:
    """The same segment under a memtable of unmaterialised deltas."""
    return LsmStore(lsm.num_nodes, lsm.segments, inner=lsm.inner,
                    inner_opts=lsm.inner_opts, num_edges=lsm.num_edges,
                    memtable=DeltaMemtable.from_entries(*lsm.memtable.entries()))


@contextmanager
def counted(cls, name):
    """Calls of method *name* of *cls* while the block runs."""
    calls, inner = [], getattr(cls, name)

    def counting(self, *args, **kwargs):
        calls.append(name)
        return inner(self, *args, **kwargs)

    setattr(cls, name, counting)
    try:
        yield calls
    finally:
        setattr(cls, name, inner)


OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "empty", "fill"]),
              st.integers(0, 1 << 20), st.integers(0, 1 << 20)),
    max_size=30,
)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 600),
    seed=st.integers(0, 2**32 - 1),
    codecs=st.sampled_from(CODECS),
    segment_bytes=st.integers(16, 512),
    rounds=st.lists(st.tuples(OPS, st.booleans()), min_size=1, max_size=3),
)
def test_patched_compaction_is_a_rebuild(n, seed, codecs, segment_bytes, rounds):
    model = _graph(seed, n)
    lsm = _lsm(model, n, codecs, segment_bytes)
    for ops, reopen in rounds:
        for kind, a, b in ops:
            u = a % n
            if kind == "insert":
                _write(lsm, model, u, b % n, insert=True)
            elif kind == "delete":
                row = sorted(model[u])
                _write(lsm, model, u, row[b % len(row)] if row else b % n, insert=False)
            elif kind == "empty":
                _empty(lsm, model, u)
            else:
                _fill(lsm, model, u, b % 64)
        if reopen:
            lsm = _reopen(lsm)
        lsm.compact()
        _check(lsm, model, n)


N, SEGMENT_BYTES = 400, 64


@pytest.fixture(params=CODECS, ids=lambda c: str(c))
def setup(request):
    model = _graph(7, N)
    return _lsm(model, N, request.param, SEGMENT_BYTES), model


def test_the_plan_mixes_fixed_and_varint_winners():
    """The fixture graph exercises both outcomes of the measurement."""
    lsm = _lsm(_graph(7, N), N, None, SEGMENT_BYTES)
    assert set(lsm.segments[0].codec_breakdown()) == {"fixed", "varint"}


def test_rows_at_the_edges_of_segments_and_graph(setup):
    """Rows 0 and n - 1, every old segment's first and last row, a row
    emptied and an empty row filled, in one compaction."""
    lsm, model = setup
    empty_row = min(u for u in range(N) if not model[u])
    full_row = max(range(N), key=lambda u: len(model[u]))
    for s in lsm.segments[0].segments:
        for u in (s.first_row, s.first_row + s.num_rows - 1):
            _write(lsm, model, u, (7 * u + 3) % N, insert=True)
    _write(lsm, model, 0, N - 1, insert=True)
    _write(lsm, model, N - 1, 0, insert=True)
    _empty(lsm, model, full_row)
    _fill(lsm, model, empty_row, 5)
    lsm.compact()
    _check(lsm, model, N)
    assert lsm.neighbors(full_row).size == 0 and lsm.neighbors(empty_row).size >= 12


def test_every_edge_deleted(setup):
    lsm, model = setup
    for u in range(N):
        _empty(lsm, model, u)
    lsm.compact()
    _check(lsm, model, N)
    assert lsm.num_edges == 0 and lsm.segments[0].segments == ()


def test_empty_memtable(setup):
    lsm, model = setup
    lsm.compact()
    _check(lsm, model, N)


def test_unmaterialised_memtable(setup):
    """Deltas that arrived through ``from_entries``: no row is memoised,
    so the patch merges each written row on its first touch."""
    lsm, model = setup
    for u in (0, 5, 77, N - 1):
        _fill(lsm, model, u, 30)
        w = (u + 1) % N
        for v in sorted(model[w])[:2]:
            _write(lsm, model, w, v, insert=False)
    lsm = _reopen(lsm)
    assert not lsm._rows
    lsm.compact()
    _check(lsm, model, N)


class Forwarding:
    """An attribute-forwarding proxy, as a timing harness wraps segments."""

    def __init__(self, inner):
        object.__setattr__(self, "_inner", inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _compact_counting(lsm):
    with counted(CompactStore, "patched") as patched, \
            counted(LsmStore, "_logical_edges") as rebuilt:
        lsm.insert_edge(1, 2)
        lsm.compact()
    return len(patched), len(rebuilt)


def test_compact_inner_patches():
    lsm = _lsm(_graph(3, 50), 50, None, SEGMENT_BYTES)
    assert _compact_counting(lsm) == (1, 0)
    assert isinstance(lsm.segments[0], CompactStore)


def test_forwarding_proxy_patches():
    model = _graph(3, 50)
    base = open_store("compact", *_edges(model), 50)
    lsm = LsmStore(50, [Forwarding(base)], inner="compact")
    assert _compact_counting(lsm) == (1, 0)
    model[1].add(2)
    _check(lsm, model, 50)


def test_packed_inner_rebuilds():
    lsm = build_lsm_store(*_edges(_graph(3, 50)), 50, inner="packed")
    assert _compact_counting(lsm) == (0, 1)
    assert isinstance(lsm.segments[0], BitPackedCSR)


def test_overlay_of_a_compact_store_rebuilds_as_its_inner_kind():
    """``writable_overlay`` compacts into ``packed``, not its base's kind."""
    lsm = writable_overlay(open_store("compact", *_edges(_graph(3, 50)), 50))
    assert lsm.inner == "packed"
    assert _compact_counting(lsm) == (0, 1)
    assert isinstance(lsm.segments[0], BitPackedCSR)


@pytest.mark.parametrize(
    "nodes,rows,match",
    [
        ([1], [], "one row per node"),
        ([2, 1], [[0], [0]], "strictly increasing"),
        ([1, 1], [[0], [0]], "strictly increasing"),
        ([10], [[0]], "strictly increasing"),
        ([1], [[0, 10]], "node ids"),
        ([1], [[3, 2]], "sorted"),
    ],
)
def test_patched_rejects_bad_rows(nodes, rows, match):
    store = open_store("compact", np.asarray([0, 1]), np.asarray([1, 2]), 10)
    with pytest.raises(ValidationError, match=match):
        store.patched(np.asarray(nodes), [np.asarray(r) for r in rows])
