"""Algorithm 1 (chunked prefix sum): equivalence with cumsum everywhere."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.obs import Tracer
from repro.parallel.machine import SerialExecutor, SimulatedMachine, ThreadExecutor
from repro.parallel.scan import (
    exclusive_from_inclusive,
    prefix_sum_parallel,
    prefix_sum_serial,
)


class TestSerialReference:
    def test_matches_cumsum(self, rng):
        a = rng.integers(0, 100, 500)
        assert np.array_equal(prefix_sum_serial(a), np.cumsum(a))

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            prefix_sum_serial(np.zeros((2, 2), dtype=np.int64))


class TestParallelScan:
    def test_matches_cumsum_on_executor(self, executor, rng):
        a = rng.integers(0, 1000, 997)
        got = prefix_sum_parallel(a, executor)
        assert np.array_equal(got, np.cumsum(a))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 63, 64, 65])
    @pytest.mark.parametrize("p", [1, 2, 3, 64, 200])
    def test_edge_lengths_vs_widths(self, n, p):
        a = np.arange(n, dtype=np.int64)
        got = prefix_sum_parallel(a, SimulatedMachine(p))
        assert np.array_equal(got, np.cumsum(a))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(0, 10**6), min_size=0, max_size=300),
        st.integers(1, 40),
    )
    def test_property_any_chunking(self, values, p):
        a = np.asarray(values, dtype=np.int64)
        got = prefix_sum_parallel(a, SimulatedMachine(p))
        assert np.array_equal(got, np.cumsum(a))

    def test_input_not_mutated_by_default(self):
        a = np.array([1, 2, 3], dtype=np.int64)
        prefix_sum_parallel(a, SimulatedMachine(2))
        assert a.tolist() == [1, 2, 3]

    def test_in_place_with_out_alias(self):
        a = np.array([1, 2, 3, 4], dtype=np.int64)
        got = prefix_sum_parallel(a, SimulatedMachine(2), out=a)
        assert got is a
        assert a.tolist() == [1, 3, 6, 10]

    def test_out_shape_mismatch(self):
        with pytest.raises(ValidationError):
            prefix_sum_parallel(
                np.arange(4), SimulatedMachine(2), out=np.zeros(5, dtype=np.int64)
            )

    def test_charges_time(self):
        machine = SimulatedMachine(4)
        machine.tracer = Tracer()
        prefix_sum_parallel(np.arange(100), machine)
        labels = {s.name for s in machine.tracer.spans()}
        assert {"scan:local", "scan:carry", "scan:broadcast"} <= labels
        assert machine.elapsed_ns() > 0

    def test_thread_backend(self, rng):
        a = rng.integers(0, 50, 10_001)
        with ThreadExecutor(4) as ex:
            assert np.array_equal(prefix_sum_parallel(a, ex), np.cumsum(a))

    def test_default_executor_is_serial(self, rng):
        a = rng.integers(0, 50, 100)
        assert np.array_equal(prefix_sum_parallel(a), np.cumsum(a))


class TestExclusiveScan:
    def test_from_inclusive(self):
        out = exclusive_from_inclusive(np.array([1, 3, 6]))
        assert out.tolist() == [0, 1, 3, 6]

    def test_empty(self):
        assert exclusive_from_inclusive(np.zeros(0, dtype=np.int64)).tolist() == [0]

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            exclusive_from_inclusive(np.zeros((2, 2), dtype=np.int64))
