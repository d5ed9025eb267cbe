"""The construction phase breakdown, read from the one tracer.

An executor with a :class:`~repro.obs.Tracer` in its ``tracer`` slot
reports every phase; with no span open each phase is a root span
(layer = kind, name = label), so a build's per-phase table is the
tracer's rollup.
"""

import numpy as np
import pytest

from repro.analysis import render_rollup
from repro.csr import build_bitpacked_csr
from repro.csr.builder import ensure_sorted
from repro.obs import Tracer, rollup_spans
from repro.parallel import SerialExecutor, SimulatedMachine, ThreadExecutor


def traced(executor):
    executor.tracer = Tracer()
    return executor


def serial_fraction(spans) -> float:
    """Share of traced time outside parallel phases (the Amdahl floor)."""
    total = sum(s.duration_ns for s in spans)
    return sum(s.duration_ns for s in spans if s.layer != "parallel") / total


@pytest.fixture
def traced_machine(rng):
    n, m = 500, 8000
    src, dst = ensure_sorted(rng.integers(0, n, m), rng.integers(0, n, m))
    machine = traced(SimulatedMachine(8))
    build_bitpacked_csr(src, dst, n, machine)
    return machine


class TestSummarize:
    def test_shares_sum_to_one(self, traced_machine):
        spans = traced_machine.tracer.spans()
        assert all(s.parent_id is None for s in spans)
        rows = rollup_spans(spans)
        assert sum(r.wall_ns for r in rows) == pytest.approx(traced_machine.elapsed_ns())

    def test_expected_phases_present(self, traced_machine):
        labels = {s.name for s in traced_machine.tracer.spans()}
        assert {"degree:count", "scan:local", "build:scatter",
                "bitpack:jA:pack", "bitpack:jA:merge"} <= labels

    def test_merge_is_serial_kind(self, traced_machine):
        kinds = {s.name: s.layer for s in traced_machine.tracer.spans()}
        assert kinds["bitpack:jA:merge"] == "serial"
        assert kinds["scan:carry"] == "locked"
        assert kinds["degree:count"] == "parallel"


class TestSerialFraction:
    def test_between_zero_and_one(self, traced_machine):
        frac = serial_fraction(traced_machine.tracer.spans())
        assert 0.0 < frac < 1.0

    def test_floors_the_speedup(self, rng):
        """T_p can never beat the structural serial fraction."""
        n, m = 300, 6000
        src, dst = ensure_sorted(rng.integers(0, n, m), rng.integers(0, n, m))
        m1 = traced(SimulatedMachine(1))
        build_bitpacked_csr(src, dst, n, m1)
        frac = serial_fraction(m1.tracer.spans())
        m64 = SimulatedMachine(64)
        build_bitpacked_csr(src, dst, n, m64)
        # simulated T64 >= serial part of T1 (sync costs make it strict)
        assert m64.elapsed_ns() >= frac * m1.elapsed_ns() * 0.95


class TestRender:
    def test_renders_table(self, traced_machine):
        out = render_rollup(traced_machine.tracer.spans(), title="T")
        assert out.splitlines()[0] == "T"
        assert "serial:bitpack:jA:merge" in out
        assert "wall (us)" in out


class TestExecutorIndependence:
    def test_same_root_phases_on_every_executor(self, rng):
        """Which executor ran a build changes the stamps, never the
        phases: same kinds, labels and declared Cost, in the same order."""
        n, m = 400, 5000
        src, dst = ensure_sorted(rng.integers(0, n, m), rng.integers(0, n, m))
        machine = SimulatedMachine(4)
        phases = []
        with ThreadExecutor(4) as threads:
            for executor in (SerialExecutor(4), threads, machine):
                traced(executor)
                build_bitpacked_csr(src, dst, n, executor)
                spans = executor.tracer.spans()
                assert all(s.parent_id is None for s in spans)
                phases.append([(s.layer, s.name, s.cost) for s in spans])
        assert phases[0] == phases[1] == phases[2]
        spans = machine.tracer.spans()
        assert spans[-1].end_ns == machine.elapsed_ns()
        assert sum(s.duration_ns for s in spans) == pytest.approx(machine.elapsed_ns())


#: ``(kind, label, duration_ns, imbalance)`` per phase of the
#: walkthrough's build at p = 16, as recorded by the simulated machine
#: before phases were reported to the tracer.
WALKTHROUGH_P16 = [
    ("parallel", "degree:count", 12514.0, 1.0012558552016808),
    ("serial", "degree:merge", 56.0, 1.0),
    ("parallel", "scan:local", 4062.5, 1.0),
    ("locked", "scan:carry", 4852.5, 1.0007212776919114),
    ("parallel", "scan:broadcast", 4061.0, 1.0496896387076238),
    ("parallel", "build:scatter", 15000.0, 1.0),
    ("parallel", "bitpack:iA:pack", 5786.5, 1.0013015399490126),
    ("serial", "bitpack:iA:merge", 4250.6, 1.0),
    ("parallel", "bitpack:jA:pack", 30625.0, 1.0),
    ("serial", "bitpack:jA:merge", 35000.0, 1.0),
]


class TestPinnedBreakdown:
    def test_walkthrough_p16_phases_unchanged(self):
        """``examples/paper_walkthrough.py``'s seeded 100k-edge build.

        A span stores its start and end stamps, not its duration: the
        stamps must be exactly the clock readings the pinned durations
        add up to, and each span's ``end - start`` then equals its
        pinned duration up to the rounding of that subtraction."""
        rng = np.random.default_rng(0)
        src = np.sort(rng.integers(0, 10_000, 100_000))
        dst = rng.integers(0, 10_000, 100_000)
        src, dst = ensure_sorted(src, dst)
        machine = traced(SimulatedMachine(16))
        build_bitpacked_csr(src, dst, 10_000, machine)
        spans = machine.tracer.spans()
        assert [(s.layer, s.name, s.meta["imbalance"]) for s in spans] == [
            (kind, label, imbalance) for kind, label, _, imbalance in WALKTHROUGH_P16]
        clock = 0.0
        for span, (_, _, duration, _) in zip(spans, WALKTHROUGH_P16):
            assert span.start_ns == clock
            clock += duration
            assert span.end_ns == clock
            assert span.duration_ns == pytest.approx(duration, rel=1e-12)
        assert clock == machine.elapsed_ns()
        assert sum(s.duration_ns for s in spans) == pytest.approx(machine.elapsed_ns())
