"""Algorithm 5: the parallel TCSR builder vs the serial reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.parallel import SimulatedMachine
from repro.temporal.builder import build_tcsr, build_tcsr_serial
from repro.temporal.events import EventList
from repro.temporal.frames import frame_toggles, snapshot_to_csr


@pytest.fixture
def stream(rng):
    n, nev, frames = 50, 1500, 11
    return EventList.from_triplets(
        rng.integers(0, n, nev),
        rng.integers(0, n, nev),
        rng.integers(0, frames, nev),
        n,
    )


class TestAgainstSerialReference:
    def test_identical_structures(self, stream, executor):
        ref = build_tcsr_serial(stream)
        got = build_tcsr(stream, executor)
        assert got.num_frames == ref.num_frames
        assert got.base == ref.base
        for a, b in zip(got.deltas, ref.deltas):
            assert a == b

    def test_deltas_equal_frame_toggles(self, stream):
        """Scan-then-difference must return the original toggles — the
        algebraic identity behind Algorithm 5 (module docs)."""
        tcsr = build_tcsr(stream, SimulatedMachine(6))
        toggles = frame_toggles(stream)
        for f in range(1, stream.num_frames):
            stored = tcsr.toggles(f)
            su, sv = stored.edges()
            from repro.temporal.events import encode_keys

            assert np.array_equal(np.sort(encode_keys(su, sv)), toggles[f])

    def test_snapshots_match_oracle(self, stream, executor):
        tcsr = build_tcsr(stream, executor)
        for f in (0, 4, stream.num_frames - 1):
            assert tcsr.snapshot(f) == snapshot_to_csr(stream, f)


class TestEdgeCases:
    def test_empty_stream(self, executor):
        ev = EventList(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64), 5)
        tcsr = build_tcsr(ev, executor)
        assert tcsr.num_frames == 1
        assert tcsr.base.num_edges == 0

    def test_single_frame(self, executor):
        ev = EventList(np.array([0, 1]), np.array([1, 0]), np.array([0, 0]), 2)
        tcsr = build_tcsr(ev, executor)
        assert tcsr.num_frames == 1
        assert tcsr.edge_active(0, 1, 0)

    def test_empty_middle_frames(self, executor):
        # events only in frames 0 and 4; 1-3 are empty deltas
        ev = EventList(
            np.array([0, 1]), np.array([1, 0]), np.array([0, 4]), 2
        )
        tcsr = build_tcsr(ev, executor)
        assert tcsr.num_frames == 5
        assert tcsr.edge_active(0, 1, 3)
        assert tcsr.edge_active(1, 0, 4)
        assert not tcsr.edge_active(1, 0, 3)

    def test_more_processors_than_frames_and_events(self):
        ev = EventList(np.array([0]), np.array([1]), np.array([0]), 2)
        tcsr = build_tcsr(ev, SimulatedMachine(64))
        assert tcsr.edge_active(0, 1, 0)

    def test_gap_encode_flag(self, stream):
        plain = build_tcsr(stream, SimulatedMachine(3))
        gap = build_tcsr(stream, SimulatedMachine(3), gap_encode=True)
        assert gap.base.gap_encoded
        for f in (0, stream.num_frames - 1):
            assert gap.snapshot(f) == plain.snapshot(f)

    def test_simulated_time_accrues(self, stream):
        machine = SimulatedMachine(4)
        machine.tracer = Tracer()
        build_tcsr(stream, machine)
        labels = {s.name for s in machine.tracer.spans()}
        assert {"tcsr:chunk-csr", "tcsr:overlap-merge", "tcsr:scan-local",
                "tcsr:scan-carry", "tcsr:scan-broadcast", "tcsr:differential"} <= labels


class TestPropertyEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 12),  # nodes
        st.integers(0, 60),  # events
        st.integers(1, 6),  # frames
        st.integers(1, 20),  # processors
        st.integers(0, 2**31),
    )
    def test_any_stream_any_width(self, n, nev, frames, p, seed):
        rng = np.random.default_rng(seed)
        ev = EventList.from_triplets(
            rng.integers(0, n, nev),
            rng.integers(0, n, nev),
            rng.integers(0, frames, nev),
            n,
        )
        got = build_tcsr(ev, SimulatedMachine(p))
        ref = build_tcsr_serial(ev)
        assert got.base == ref.base
        assert all(a == b for a, b in zip(got.deltas, ref.deltas))
