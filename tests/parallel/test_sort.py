"""Chunked parallel sample sort: equivalence with np.sort everywhere."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.obs import Tracer
from repro.parallel import SimulatedMachine, ThreadExecutor
from repro.parallel.sort import parallel_sort


class TestParallelSort:
    def test_matches_numpy(self, executor, rng):
        a = rng.integers(0, 10**6, 4999)
        assert np.array_equal(parallel_sort(a, executor), np.sort(a))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 64, 65])
    @pytest.mark.parametrize("p", [1, 2, 3, 16, 100])
    def test_edge_sizes(self, n, p, rng):
        a = rng.integers(0, 50, n)
        assert np.array_equal(parallel_sort(a, SimulatedMachine(p)), np.sort(a))

    def test_heavy_duplicates(self, rng):
        """Many equal keys must not straddle splitter boundaries."""
        a = rng.integers(0, 3, 2000)
        for p in (2, 7, 32):
            assert np.array_equal(parallel_sort(a, SimulatedMachine(p)), np.sort(a))

    def test_all_equal(self):
        a = np.full(500, 7, dtype=np.int64)
        out = parallel_sort(a, SimulatedMachine(8))
        assert np.array_equal(out, a)

    def test_already_sorted_and_reversed(self, rng):
        a = np.arange(1000)
        assert np.array_equal(parallel_sort(a, SimulatedMachine(5)), a)
        assert np.array_equal(parallel_sort(a[::-1], SimulatedMachine(5)), a)

    # simulated ns of the seed's implementation (argsort per chunk, then a
    # lexsort per bucket): the phases' declared costs are the model and
    # must not move when only the executed numpy work changes
    PINNED_NS = {1: 94001.5, 4: 29502.0, 16: 16969.5}

    @pytest.mark.parametrize("p", sorted(PINNED_NS))
    def test_heavy_ties_permutation_and_pinned_cost(self, rng, p):
        a = rng.integers(0, 7, 5000)
        machine = SimulatedMachine(p)
        out, want = parallel_sort(a, machine), np.sort(a)
        assert out.dtype == want.dtype and np.array_equal(out, want)
        assert machine.elapsed_ns() == self.PINNED_NS[p]

    def test_input_untouched_and_not_aliased(self, rng):
        a = rng.integers(0, 10**6, 3000)
        keep = a.copy()
        for p in (1, 5):
            out = parallel_sort(a, SimulatedMachine(p))
            assert np.array_equal(a, keep) and not np.shares_memory(out, a)

    def test_thread_backend(self, rng):
        a = rng.integers(0, 10**4, 20_001)
        with ThreadExecutor(4) as ex:
            assert np.array_equal(parallel_sort(a, ex), np.sort(a))

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            parallel_sort(np.zeros((2, 2)), SimulatedMachine(2))

    def test_phases_charged(self, rng):
        machine = SimulatedMachine(4)
        machine.tracer = Tracer()
        parallel_sort(rng.integers(0, 100, 1000), machine)
        labels = {s.name for s in machine.tracer.spans()}
        assert {"sort:local", "sort:splitters", "sort:merge", "sort:concat"} <= labels

    def test_sort_scales_in_simulation(self, rng):
        a = rng.integers(0, 10**9, 200_000)
        times = {}
        for p in (1, 16):
            machine = SimulatedMachine(p)
            parallel_sort(a, machine)
            times[p] = machine.elapsed_ns()
        assert times[16] < times[1] / 4

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-(10**9), 10**9), max_size=300), st.integers(1, 40))
    def test_property(self, values, p):
        a = np.asarray(values, dtype=np.int64)
        assert np.array_equal(parallel_sort(a, SimulatedMachine(p)), np.sort(a))


class TestBuilderIntegration:
    def test_sorted_build_uses_parallel_sort(self, rng):
        from repro.csr.builder import build_csr, build_csr_serial, ensure_sorted

        n, m = 100, 2000
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        machine = SimulatedMachine(8)
        machine.tracer = Tracer()
        got = build_csr(src, dst, n, machine, sort=True)
        labels = {s.name for s in machine.tracer.spans()}
        assert "sort:local" in labels and "build:sort-apply" in labels
        ss, dd = ensure_sorted(src, dst)
        assert got == build_csr_serial(ss, dd, n).compact_dtypes()

    @pytest.mark.parametrize(
        "p,plain_ns,weighted_ns",
        [(1, 120055.0, 124055.0), (4, 45759.0, 46759.0), (16, 32142.0, 32392.0)],
    )
    def test_raw_input_build_cost_pinned(self, rng, p, plain_ns, weighted_ns):
        """``build_csr(sort=True)`` charges what the seed charged, whether
        it sorts keys by value (no weights) or builds the permutation."""
        from repro.csr.builder import build_csr

        src, dst = rng.integers(0, 300, 4000), rng.integers(0, 300, 4000)
        for weights, want in ((None, plain_ns), (np.arange(4000), weighted_ns)):
            machine = SimulatedMachine(p)
            build_csr(src, dst, 300, machine, sort=True, weights=weights)
            assert machine.elapsed_ns() == want

    def test_weighted_sort_keeps_weights(self, rng):
        from repro.csr.builder import build_csr

        n, m = 40, 500
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        w = np.arange(m)
        g = build_csr(src, dst, n, SimulatedMachine(4), weights=w, sort=True)
        # weight i still attached to edge (src[i], dst[i])
        for i in rng.integers(0, m, 30).tolist():
            row = g.neighbors(int(src[i]))
            weights = g.neighbor_weights(int(src[i]))
            matches = [w_ for v_, w_ in zip(row.tolist(), weights.tolist())
                       if v_ == dst[i] and w_ == i]
            assert matches == [i]
