"""The store registry, open_store, and protocol conformance.

The conformance meta-test runs every *registered* store kind —
including the sharded composite — through the GraphStore contract:
isinstance against the protocol, row_dtype consistency between scalar
and batch paths, and the neighbors_batch offset invariants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import available_stores, open_store, register_store
from repro.csr.builder import ensure_sorted
from repro.errors import QueryError, ValidationError
from repro.query import RowCache, capabilities
from repro.query.stores import GraphStore, neighbors_batch
from repro.shard import ShardedStore, make_partitioner, shard_edge_list
from repro.stores import get_store_spec, load_store, save_store
from tests.conftest import LEAF_PREFIX, rewrite_npz, rows_sorted, unsorted_leaf_payload

#: registered kinds whose store decodes a batch natively
NATIVE_BATCH_KINDS = ["compact", "csr", "csr-serial", "disk", "gap", "lsm",
                      "packed", "reordered", "sharded"]


@pytest.fixture(scope="module")
def edges():
    # distinct (u, v) pairs: the dense-matrix baselines deduplicate,
    # so a multigraph would skew their num_edges
    rng = np.random.default_rng(0xBEEF)
    n = 60
    keys = np.unique(rng.integers(0, n * n, 400))
    src, dst = keys // n, keys % n
    order = np.lexsort((dst, src))
    return src[order], dst[order], n


@pytest.fixture(scope="module")
def built(edges):
    src, dst, n = edges
    return {kind: open_store(kind, src, dst, n) for kind in available_stores()}


class TestRegistry:
    def test_builtin_kinds_present(self):
        kinds = available_stores()
        for kind in ("csr", "csr-serial", "packed", "gap", "disk", "sharded",
                     "adjlist", "edgelist", "edgelist-unsorted",
                     "adjmatrix", "bitmatrix", "compact", "reordered", "lsm"):
            assert kind in kinds
        # pinned: a kind enters or leaves the registry deliberately
        assert len(kinds) == 14

    def test_unknown_kind_lists_known(self):
        with pytest.raises(ValidationError, match="unknown store kind"):
            open_store("btree", None, None, 0)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValidationError):
            register_store("csr", lambda *a, **k: None, "dup")

    def test_replace_and_custom_kind(self, edges):
        src, dst, n = edges
        spec = register_store(
            "test-custom", lambda s, d, n, **k: open_store("csr", s, d, n),
            "adapter for the conformance test", replace=True,
        )
        try:
            assert get_store_spec("test-custom") is spec
            store = open_store("test-custom", src, dst, n)
            assert store.num_edges == len(src)
        finally:
            from repro import stores as _stores

            _stores._REGISTRY.pop("test-custom", None)

    def test_executor_accepted_everywhere(self, edges):
        """Every registered builder takes executor= (used or ignored)."""
        from repro.parallel import SerialExecutor

        src, dst, n = edges
        for kind in available_stores():
            store = open_store(kind, src, dst, n, executor=SerialExecutor())
            assert store.num_edges >= 0

    def test_sharded_nested_inner_kind(self, edges):
        src, dst, n = edges
        store = open_store(
            "sharded", src, dst, n, shards=2, inner="gap", partitioner="hash"
        )
        assert store.shards[0].gap_encoded

    def test_lsm_nested_inner_kind(self, edges):
        src, dst, n = edges
        store = open_store("lsm", src, dst, n, inner="gap")
        assert store.segments[0].gap_encoded

    @pytest.mark.parametrize("outer,opts", [
        ("sharded", {"shards": 2}),
        ("lsm", {}),
        ("reordered", {}),
    ])
    def test_unknown_nested_inner_kind_names_composite(self, edges, outer, opts):
        """An unknown inner= fails with one line naming the composite
        it was nested in and listing the known kinds."""
        src, dst, n = edges
        with pytest.raises(
            ValidationError,
            match=f"unknown inner store kind 'btree' for {outer} store",
        ) as excinfo:
            open_store(outer, src, dst, n, inner="btree", **opts)
        assert "known:" in str(excinfo.value)
        assert "\n" not in str(excinfo.value).strip()

    def test_old_constructors_still_work(self, edges):
        """The registry is additive — direct construction is untouched."""
        from repro.csr import BitPackedCSR, build_csr_serial

        src, dst, n = edges
        g = build_csr_serial(src, dst, n)
        packed = BitPackedCSR.from_csr(g)
        assert packed.num_edges == g.num_edges == len(src)


class TestProtocolConformance:
    """Every registered kind satisfies the GraphStore contract."""

    @pytest.mark.parametrize("kind", sorted(
        # module-scope fixture can't parametrise itself; keep in sync
        # via the assertion inside test_builtin_kinds_present
        ["csr", "csr-serial", "packed", "gap", "disk", "sharded", "adjlist",
         "edgelist", "edgelist-unsorted", "adjmatrix", "bitmatrix",
         "compact", "reordered", "lsm"]
    ))
    def test_kind(self, built, edges, kind):
        src, dst, n = edges
        store = built[kind]
        assert isinstance(store, GraphStore)
        assert int(store.num_nodes) == n
        assert int(store.num_edges) == len(src)
        assert store.memory_bytes() > 0

        caps = capabilities(store)
        rng = np.random.default_rng(kind.encode()[0])
        us = rng.integers(0, n, 50)

        # scalar surface: neighbors dtype matches the declared row dtype
        row = store.neighbors(int(us[0]))
        assert row.dtype == caps.row_dtype
        assert store.degree(int(us[0])) == row.shape[0]

        # batch surface invariants (native or fallback)
        flat, offs = neighbors_batch(store, us, caps)
        assert flat.dtype == caps.row_dtype
        assert offs.dtype == np.int64
        assert offs.shape == (len(us) + 1,)
        assert int(offs[0]) == 0
        assert np.all(np.diff(offs) >= 0)
        assert int(offs[-1]) == flat.shape[0]
        for i, u in enumerate(us.tolist()):
            assert np.array_equal(flat[offs[i]: offs[i + 1]], store.neighbors(u))

        # rows are sorted by construction, so has_edge (a binary search
        # in most kinds) agrees with the edge set — on this graph and on
        # ROADMAP item 1's fault-table list, which every builder takes sorted
        lit_src, lit_dst = ensure_sorted(np.array([0, 0, 1]), np.array([5, 3, 2]))
        cases = [(store, src, dst, n),
                 (open_store(kind, lit_src, lit_dst, 6), lit_src, lit_dst, 6)]
        for case, c_src, c_dst, c_n in cases:
            assert rows_sorted(case)
            present = set(zip(c_src.tolist(), c_dst.tolist()))
            pairs = [(u, v) for u in range(c_n) for v in range(c_n)]
            assert [case.has_edge(u, v) for u, v in pairs] == [p in present for p in pairs]

    @pytest.mark.parametrize("kind", NATIVE_BATCH_KINDS)
    def test_native_batch_edge_cases(self, built, edges, kind):
        """One key check and one dedup/expand for every native batch:
        same rows as the scalar path, same errors from every kind."""
        n = edges[2]
        store = built[kind]
        caps = capabilities(store)
        keys = np.array([n - 1, 3, 17, 3, 0, n - 1, 3])  # duplicates, unsorted
        flat, offs = store.neighbors_batch(keys)
        assert flat.dtype == caps.row_dtype and offs.dtype == np.int64
        assert offs.shape == (len(keys) + 1,) and int(offs[-1]) == flat.shape[0]
        for i, u in enumerate(keys.tolist()):
            row = store.neighbors(u)
            assert row.dtype == flat.dtype
            assert np.array_equal(flat[offs[i]: offs[i + 1]], row)
        flat, offs = store.neighbors_batch(np.zeros(0, dtype=np.int64))
        assert flat.dtype == caps.row_dtype and flat.shape == (0,)
        assert offs.dtype == np.int64 and offs.tolist() == [0]
        out_of_range = f"node ids must lie in [0, {n})"
        for bad, text in [
            ([[0, 1]], "node batch must be 1-D"),
            ([0, -1], out_of_range), ([-1, 5], out_of_range),
            ([n, 0], out_of_range), ([2, n], out_of_range),
        ]:
            with pytest.raises(QueryError) as excinfo:
                store.neighbors_batch(np.array(bad))
            assert str(excinfo.value) == text

    def test_native_batch_kinds_in_sync(self, built):
        assert NATIVE_BATCH_KINDS == sorted(
            kind for kind, store in built.items()
            if capabilities(store).has_native_batch
        )

    def test_registry_and_parametrisation_in_sync(self, built):
        assert sorted(built) == sorted(
            ["csr", "csr-serial", "packed", "gap", "disk", "sharded", "adjlist",
             "edgelist", "edgelist-unsorted", "adjmatrix", "bitmatrix",
             "compact", "reordered", "lsm"]
        ), "new registered kinds must be added to TestProtocolConformance"


@pytest.fixture(scope="module", params=["range", "hash"])
def disk_stack(request, edges):
    """ShardedStore(ReorderedStore(DiskStore)) — every wrapper level."""
    src, dst, n = edges
    part = make_partitioner(request.param, 3, src, n)
    return ShardedStore(part, [
        open_store("reordered", s_src, s_dst, n, inner="disk")
        for s_src, s_dst in shard_edge_list(src, dst, part)
    ])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_order_changes_neither_rows_nor_pages(disk_stack, data):
    """A strictly increasing batch and its shuffled, duplicated form
    decode the same distinct rows: equal replies, equal page touches."""
    n = disk_stack.num_nodes
    rising = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=25)))
    repeats = data.draw(st.lists(st.sampled_from(rising), max_size=25))
    mixed = data.draw(st.permutations(rising + repeats))

    def read(keys):
        cache = RowCache(disk_stack, capacity=10_000)
        cache.take_page_touches()
        flat, offs = cache.neighbors_batch(np.asarray(keys, dtype=np.int64))
        rows = [flat[offs[i]: offs[i + 1]] for i in range(len(keys))]
        return rows, cache.take_page_touches()

    rows, pages = read(rising)
    want = dict(zip(rising, rows))
    got, mixed_pages = read(mixed)
    assert mixed_pages == pages > 0
    for u, row in zip(mixed, got):
        assert row.dtype == want[u].dtype and np.array_equal(row, want[u])


#: sorted key list of one saved file of each ``.npz`` kind
_PACKED_KEYS = ["column_width", "columns", "columns_nbits", "gap_encoded",
                "num_edges", "num_nodes", "offset_width", "offsets", "offsets_nbits"]
NPZ_KEYS = {
    "packed": _PACKED_KEYS,
    "compact": sorted(
        ["store_kind", "num_nodes", "num_edges", "offset_width", "offsets",
         "offsets_nbits", "num_segments"]
        + [f"seg0_{k}" for k in ("meta", "codec", "payload", "payload_nbits",
                                 "starts", "starts_nbits")]),
    "sharded": sorted(
        ["store_kind", "num_shards", "partitioner_kind", "partitioner_bounds",
         "shard1_first_row"]  # a range shard's row window starts past row 0
        + [f"shard{s}_{k}" for s in range(2) for k in _PACKED_KEYS]),
    "reordered": sorted(
        ["store_kind", "ordering", "perm", "inner_kind"]
        + [f"inner_{k}" for k in _PACKED_KEYS]),
    "lsm": sorted(
        ["store_kind", "num_nodes", "num_edges", "num_segments", "inner",
         "compact_watermark", "mt_u", "mt_v", "mt_alive"]
        + [f"segment0_{k}" for k in _PACKED_KEYS]),
}


@pytest.mark.parametrize("kind", sorted(NPZ_KEYS))
def test_npz_layout_pinned_and_loadable(edges, tmp_path, kind):
    """The saved key names are a file format: pinned per kind, and a
    saved file comes back through ``load_store`` answering the same."""
    src, dst, n = edges
    opts = {"sharded": {"shards": 2}}.get(kind, {})
    store = open_store(kind, src, dst, n, **opts)
    if kind == "lsm":
        store.insert_edge(0, 0) or store.delete_edge(0, 0)
    path = tmp_path / f"{kind}.npz"
    save_store(store, path)
    with np.load(path) as data:
        assert sorted(data.files) == NPZ_KEYS[kind]
    loaded = load_store(path)
    assert type(loaded) is type(store)
    nodes = np.arange(n)
    for got, want in zip(loaded.neighbors_batch(nodes), store.neighbors_batch(nodes)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


#: (kind, fault) pairs of the malformed-file matrix: every kind under
#: every fault that can reach it (a codec name lives only in a compact
#: payload; an unsorted row is crafted as a packed payload; only a
#: reordered file holds a permutation)
MALFORMED = [
    (kind, fault)
    for kind in ("packed", "compact", "sharded", "reordered", "lsm")
    for fault in ("missing-key", "unknown-kind", "unknown-codec", "unsorted-row",
                  "bad-perm", "not-a-zip")
    if not (fault == "unknown-codec" and kind not in ("compact", "reordered"))
    and not (fault == "unsorted-row" and kind == "compact")
    and not (fault == "bad-perm" and kind != "reordered")
]
_FAULT_TEXT = {
    "missing-key": "lacks key", "unknown-kind": "unknown store kind 'nope'",
    "unknown-codec": "unknown codec 'nope'", "unsorted-row": "not sorted",
    "bad-perm": "permutation entries must lie in [0, 6)",
    "not-a-zip": "not a loadable store file",
}


@pytest.mark.parametrize("kind,fault", MALFORMED)
def test_a_malformed_file_is_one_error_line(tmp_path, capsys, kind, fault):
    """Whatever is wrong with a saved ``.npz``, ``load_store`` (and so
    ``repro info``) answers with one ``ReproError`` line naming the file."""
    from repro.cli import main
    from repro.errors import ReproError

    opts = {"sharded": {"shards": 2}, "reordered": {"inner": "compact"}}.get(kind, {})
    path = tmp_path / f"{kind}.npz"
    save_store(open_store(kind, [0, 0, 1], [3, 5, 2], 6, **opts), path)
    prefix = LEAF_PREFIX[kind]
    if fault == "not-a-zip":
        path.write_bytes(path.read_bytes()[:64])
    else:
        rewrite_npz(path, **{
            "missing-key": {f"{prefix}offsets_nbits": None},
            "unknown-kind": {"store_kind": "nope"},
            "unknown-codec": {f"{prefix}seg0_codec": "nope"},
            "unsorted-row": unsorted_leaf_payload(prefix),
            "bad-perm": {"perm": np.array([0, 1, 2, 3, 4, 6])},
        }[fault])
        if fault == "unsorted-row" and kind == "reordered":
            rewrite_npz(path, inner_kind="packed")  # the crafted inner is packed
    with pytest.raises(ReproError) as info:
        load_store(path)
    message = str(info.value)
    assert str(path) in message and _FAULT_TEXT[fault] in message
    assert "\n" not in message
    assert main(["info", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
