"""Algorithms 2+3 (parallel degree) against np.bincount."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csr.degree import degree_parallel, degree_serial, run_length_counts
from repro.errors import NotSortedError, ValidationError
from repro.obs import Tracer
from repro.parallel import SimulatedMachine


class TestRunLengthCounts:
    def test_basic(self):
        nodes, counts = run_length_counts(np.array([0, 0, 1, 1, 1, 4]))
        assert nodes.tolist() == [0, 1, 4]
        assert counts.tolist() == [2, 3, 1]

    def test_empty(self):
        nodes, counts = run_length_counts(np.zeros(0, dtype=np.int64))
        assert nodes.shape == (0,) and counts.shape == (0,)

    def test_single_run(self):
        nodes, counts = run_length_counts(np.full(7, 3))
        assert nodes.tolist() == [3] and counts.tolist() == [7]


class TestDegreeSerial:
    def test_matches_bincount(self, rng):
        src = rng.integers(0, 50, 500)
        assert np.array_equal(degree_serial(src, 50), np.bincount(src, minlength=50))

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            degree_serial(np.array([5]), 5)


class TestDegreeParallel:
    def test_matches_bincount(self, executor, rng):
        src = np.sort(rng.integers(0, 100, 2000))
        got = degree_parallel(src, 100, executor)
        assert np.array_equal(got, np.bincount(src, minlength=100))

    def test_heavy_hitter_spanning_many_chunks(self):
        """One node covering several whole chunks: every middle chunk
        contributes only a temp entry and the merge must sum them all."""
        src = np.concatenate([np.zeros(95, dtype=np.int64), np.array([1, 1, 2, 3, 4])])
        got = degree_parallel(src, 5, SimulatedMachine(10))
        assert got.tolist() == [95, 2, 1, 1, 1]

    def test_node_starting_exactly_at_chunk_boundary(self):
        # 12 items over 4 chunks of 3; node 7's run starts at index 3
        src = np.array([1, 1, 1, 7, 7, 7, 7, 7, 7, 9, 9, 9])
        got = degree_parallel(src, 10, SimulatedMachine(4))
        assert got[1] == 3 and got[7] == 6 and got[9] == 3

    def test_unsorted_rejected(self):
        with pytest.raises(NotSortedError):
            degree_parallel(np.array([3, 1]), 5, SimulatedMachine(2))

    def test_check_sorted_optout(self):
        # caller takes responsibility; result follows run-length logic
        got = degree_parallel(
            np.array([1, 1]), 5, SimulatedMachine(1), check_sorted=False
        )
        assert got[1] == 2

    def test_empty_edge_list(self, executor):
        got = degree_parallel(np.zeros(0, dtype=np.int64), 4, executor)
        assert got.tolist() == [0, 0, 0, 0]

    def test_zero_nodes(self, executor):
        assert degree_parallel(np.zeros(0, dtype=np.int64), 0, executor).shape == (0,)

    def test_id_out_of_range(self):
        with pytest.raises(ValidationError):
            degree_parallel(np.array([0, 9]), 9, SimulatedMachine(2))

    def test_charges_count_and_merge_phases(self):
        machine = SimulatedMachine(3)
        machine.tracer = Tracer()
        degree_parallel(np.sort(np.arange(30) % 7), 7, machine)
        labels = [s.name for s in machine.tracer.spans()]
        assert labels == ["degree:count", "degree:merge"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 20), max_size=300),
        st.integers(1, 50),
    )
    def test_property_any_graph_any_width(self, raw, p):
        src = np.sort(np.asarray(raw, dtype=np.int64))
        got = degree_parallel(src, 21, SimulatedMachine(p))
        assert np.array_equal(got, np.bincount(src, minlength=21))
