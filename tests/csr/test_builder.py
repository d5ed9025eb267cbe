"""Parallel CSR construction against the serial builder and scipy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csr.builder import (
    build_csr,
    build_csr_serial,
    check_edge_list,
    ensure_sorted,
)
from repro.errors import NotSortedError, ValidationError
from repro.obs import Tracer
from repro.parallel import SimulatedMachine


class TestCheckEdgeList:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="differ in length"):
            check_edge_list([1, 2], [3], 5)

    def test_id_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            check_edge_list([0], [7], 7)

    def test_negative(self):
        with pytest.raises(ValidationError, match="non-negative"):
            check_edge_list([-1], [0], 3)

    def test_floats(self):
        with pytest.raises(ValidationError, match="integers"):
            check_edge_list(np.array([0.5]), np.array([1.0]), 3)


class TestEnsureSorted:
    def test_sorts_by_u_then_v(self):
        src, dst = ensure_sorted(np.array([2, 0, 2]), np.array([1, 5, 0]))
        assert src.tolist() == [0, 2, 2]
        assert dst.tolist() == [5, 0, 1]

    def test_noop_when_sorted(self):
        s = np.array([0, 1, 1])
        d = np.array([2, 0, 3])
        src, dst = ensure_sorted(s, d)
        assert src is s and dst is d

    def test_sorts_rows_even_when_u_sorted(self):
        src, dst = ensure_sorted(np.array([1, 1]), np.array([5, 2]))
        assert dst.tolist() == [2, 5]


class TestBuildCsr:
    def test_matches_serial_reference(self, executor, sorted_edges):
        src, dst, n = sorted_edges
        ref = build_csr_serial(src, dst, n)
        got = build_csr(src, dst, n, executor)
        assert np.array_equal(got.indptr.astype(np.int64), ref.indptr)
        assert np.array_equal(got.indices.astype(np.int64), ref.indices)

    def test_matches_scipy(self, sorted_edges):
        from scipy.sparse import coo_matrix

        src, dst, n = sorted_edges
        got = build_csr(src, dst, n, SimulatedMachine(5))
        ref = coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n)).tocsr()
        ref.sort_indices()
        # scipy collapses duplicate edges; compare via degree + row sets
        got_sp = got.to_scipy()
        got_sp.sum_duplicates()
        assert np.array_equal(got_sp.indptr, ref.indptr)
        assert np.array_equal(got_sp.indices, ref.indices)

    def test_requires_sorted_input(self):
        with pytest.raises(NotSortedError, match="sort=True"):
            build_csr(np.array([3, 1]), np.array([0, 0]), 5)

    def test_sort_flag(self):
        g = build_csr(np.array([3, 1]), np.array([0, 2]), 5, sort=True)
        assert g.neighbors(1).tolist() == [2]
        assert g.neighbors(3).tolist() == [0]

    def test_compact_dtypes(self, sorted_edges):
        src, dst, n = sorted_edges
        g = build_csr(src, dst, n, compact=True)
        assert g.indices.dtype == np.uint8  # n=200 fits
        g64 = build_csr(src, dst, n, compact=False)
        assert g64.indices.dtype == np.int64

    def test_empty_graph(self, executor):
        g = build_csr(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0, executor)
        assert g.num_nodes == 0 and g.num_edges == 0

    def test_nodes_without_edges(self, executor):
        g = build_csr(np.array([2]), np.array([0]), 6, executor)
        assert g.degrees().tolist() == [0, 0, 1, 0, 0, 0]

    def test_duplicates_preserved(self):
        g = build_csr(np.array([0, 0]), np.array([1, 1]), 2)
        assert g.num_edges == 2
        assert g.neighbors(0).tolist() == [1, 1]

    def test_simulated_time_decreases_with_processors(self, sorted_edges):
        src, dst, n = sorted_edges
        times = {}
        for p in (1, 8):
            m = SimulatedMachine(p)
            build_csr(src, dst, n, m)
            times[p] = m.elapsed_ns()
        assert times[8] < times[1]

    def test_sort_stage_charged_when_requested(self):
        m = SimulatedMachine(2)
        m.tracer = Tracer()
        build_csr(np.array([3, 1]), np.array([0, 2]), 5, m, sort=True)
        labels = {s.name for s in m.tracer.spans()}
        assert "sort:local" in labels  # parallel sample sort ran
        assert "build:sort-apply" in labels

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_matches_serial(self, data):
        n = data.draw(st.integers(1, 30))
        m = data.draw(st.integers(0, 120))
        p = data.draw(st.integers(1, 24))
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        src, dst = ensure_sorted(src, dst)
        ref = build_csr_serial(src, dst, n)
        got = build_csr(src, dst, n, SimulatedMachine(p))
        assert np.array_equal(got.indptr.astype(np.int64), ref.indptr)
        assert np.array_equal(got.indices.astype(np.int64), ref.indices)


class TestBuildCsrSerial:
    def test_table1_example(self, tiny_graph):
        from repro.csr.graph import CSRGraph

        ref = CSRGraph.from_dense(tiny_graph)
        rows, cols = np.nonzero(tiny_graph)
        got = build_csr_serial(rows, cols, 10)
        assert got == ref

    def test_unsorted_rejected(self):
        with pytest.raises(NotSortedError):
            build_csr_serial(np.array([1, 0]), np.array([0, 1]), 2)


class TestRowOrder:
    """Every store's rows are sorted by construction: a list sorted by
    source but not within a row (ROADMAP item 1's fault-table case,
    where a binary search answered ``has_edge(0, 3)`` wrong) is refused
    by every builder and by the validating constructor, and a saved file
    holding such a row (written by an unchecked build) by ``load_store``,
    each with one line."""

    SRC, DST, N = [0, 0, 1], [5, 3, 2], 6

    @pytest.mark.parametrize("builder", [
        "build_csr", "build_csr_serial", "build_bitpacked_csr", "build_sharded_store",
        "build_compact_csr", "pack_disk_store", "CSRGraph",
    ])
    def test_a_row_unsorted_list_is_refused(self, builder, tmp_path):
        from repro.csr import CSRGraph, build_bitpacked_csr
        from repro.csr.compact import build_compact_csr
        from repro.disk import pack_disk_store
        from repro.errors import ReproError
        from repro.shard import build_sharded_store

        src, dst, n = self.SRC, self.DST, self.N
        attempt = {
            "build_csr": lambda: build_csr(src, dst, n),
            "build_csr_serial": lambda: build_csr_serial(src, dst, n),
            "build_bitpacked_csr": lambda: build_bitpacked_csr(src, dst, n),
            "build_sharded_store": lambda: build_sharded_store(src, dst, n, shards=2),
            "build_compact_csr": lambda: build_compact_csr(src, dst, n, sort=False),
            "pack_disk_store": lambda: pack_disk_store(src, dst, n, tmp_path / "d"),
            "CSRGraph": lambda: CSRGraph([0, 2, 3, 3, 3, 3, 3], dst),
        }[builder]
        with pytest.raises(NotSortedError) as excinfo:
            attempt()
        assert isinstance(excinfo.value, ReproError)
        message = str(excinfo.value)
        assert message and "\n" not in message

    @pytest.mark.parametrize("kind", ["packed", "sharded", "reordered", "lsm"])
    def test_a_saved_unsorted_row_is_refused_on_load(self, kind, tmp_path):
        from repro.stores import load_store, open_store, save_store
        from tests.conftest import LEAF_PREFIX, rewrite_npz, unsorted_leaf_payload

        src, dst = ensure_sorted(np.asarray(self.SRC), np.asarray(self.DST))
        path = tmp_path / f"{kind}.npz"
        save_store(open_store(kind, src, dst, self.N), path)
        rewrite_npz(path, **unsorted_leaf_payload(LEAF_PREFIX[kind]))
        with pytest.raises(NotSortedError) as excinfo:
            load_store(path)
        message = str(excinfo.value)
        assert str(path) in message and "\n" not in message
