"""Speed-up metrics and Amdahl fitting."""

import pytest

from repro.analysis.speedup import (
    SpeedupCurve,
    amdahl_fit,
    efficiency,
    speedup_percent,
    speedup_ratio,
)
from repro.errors import ValidationError


class TestMetrics:
    def test_percent_matches_paper_rows(self):
        # LiveJournal row of Table II
        assert speedup_percent(164.76, 57.94) == pytest.approx(64.83, abs=0.05)
        assert speedup_percent(164.76, 17.613) == pytest.approx(89.31, abs=0.05)

    def test_ratio_and_efficiency(self):
        assert speedup_ratio(100, 25) == 4.0
        assert efficiency(100, 25, 4) == 1.0
        assert efficiency(100, 50, 4) == 0.5

    def test_positive_required(self):
        with pytest.raises(ValidationError):
            speedup_percent(0, 1)
        with pytest.raises(ValidationError):
            efficiency(1, 1, 0)


class TestAmdahl:
    def test_fit_recovers_exact_curve(self):
        s = 0.2
        ps = [1, 2, 4, 8, 16, 64]
        ts = [50 * (s + (1 - s) / p) for p in ps]  # Amdahl's law
        assert amdahl_fit(ps, ts) == pytest.approx(s, abs=1e-9)

    def test_fit_clamped_to_unit_interval(self):
        # superlinear measurements would give s < 0; clamp to 0
        assert amdahl_fit([1, 2], [100, 40]) == 0.0

    def test_fit_requires_baseline(self):
        with pytest.raises(ValidationError, match="p=1"):
            amdahl_fit([2, 4], [50, 25])

    def test_fit_input_validation(self):
        with pytest.raises(ValidationError):
            amdahl_fit([1], [10])
        with pytest.raises(ValidationError):
            amdahl_fit([1, 2], [10, -1])

    def test_paper_curves_imply_serial_fraction(self):
        """The paper's own Table II curves fit Amdahl with a visible
        sequential fraction — the 'inherent sequential steps'."""
        from repro.datasets.registry import PAPER_GRAPHS

        for spec in PAPER_GRAPHS.values():
            ps = sorted(spec.times_ms)
            s = amdahl_fit(ps, [spec.times_ms[p] for p in ps])
            assert 0.0 < s < 0.35, spec.name


class TestSpeedupCurve:
    def test_derived_metrics(self):
        curve = SpeedupCurve("g", {1: 100.0, 4: 40.0, 16: 20.0})
        assert curve.t1 == 100.0
        assert curve.percent() == {4: 60.0, 16: 80.0}
        assert curve.ratios()[16] == 5.0
        assert 0 <= curve.serial_fraction() <= 1

    def test_requires_baseline(self):
        with pytest.raises(ValidationError):
            SpeedupCurve("g", {4: 10.0})

    def test_rejects_invalid_points(self):
        with pytest.raises(ValidationError):
            SpeedupCurve("g", {1: 100.0, 0: 5.0})
        with pytest.raises(ValidationError):
            SpeedupCurve("g", {1: -1.0})
