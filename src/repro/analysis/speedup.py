"""Speed-up arithmetic: the paper's percentage metric and Amdahl fits.

Table II's final column is ``(1 - T_p / T_1) * 100`` — time *saved*
relative to one processor, not the conventional ``T_1 / T_p`` ratio.
Both are provided; the Amdahl helpers quantify the sequential fraction
each measured curve implies, which is how EXPERIMENTS.md explains the
saturation the paper attributes to "inherent sequential steps".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..utils import require

__all__ = [
    "speedup_percent",
    "speedup_ratio",
    "efficiency",
    "amdahl_fit",
    "SpeedupCurve",
]


def speedup_percent(t1: float, tp: float) -> float:
    """The paper's metric: percent of single-processor time eliminated."""
    require(t1 > 0 and tp > 0, "times must be positive")
    return (1.0 - tp / t1) * 100.0


def speedup_ratio(t1: float, tp: float) -> float:
    """Conventional speed-up ``T_1 / T_p``."""
    require(t1 > 0 and tp > 0, "times must be positive")
    return t1 / tp


def efficiency(t1: float, tp: float, p: int) -> float:
    """Parallel efficiency ``(T_1 / T_p) / p`` in [0, 1] ideally."""
    require(p >= 1, "p must be positive")
    return speedup_ratio(t1, tp) / p


def amdahl_fit(processors, times) -> float:
    """Least-squares serial fraction explaining a (p, T_p) curve.

    Model: ``T_p / T_1 = s + (1 - s)/p``.  Closed form via the normal
    equation on ``x = 1 - 1/p``.  Requires the p=1 measurement.
    """
    ps = np.asarray(list(processors), dtype=np.float64)
    ts = np.asarray(list(times), dtype=np.float64)
    if ps.shape != ts.shape or ps.size < 2:
        raise ValidationError("need matching arrays with at least two points")
    if not np.any(ps == 1):
        raise ValidationError("amdahl_fit requires the p=1 baseline point")
    if np.any(ts <= 0) or np.any(ps < 1):
        raise ValidationError("times must be positive and p >= 1")
    t1 = float(ts[ps == 1][0])
    ratio = ts / t1  # = s + (1-s)/p  ->  ratio - 1/p = s * (1 - 1/p)
    x = 1.0 - 1.0 / ps
    y = ratio - 1.0 / ps
    denom = float(np.dot(x, x))
    if denom == 0.0:
        raise ValidationError("need at least one point with p > 1")
    s = float(np.dot(x, y) / denom)
    return min(1.0, max(0.0, s))


@dataclass(frozen=True)
class SpeedupCurve:
    """A named (p -> time) series with derived metrics."""

    name: str
    times_ms: dict[int, float]

    def __post_init__(self):
        if 1 not in self.times_ms:
            raise ValidationError("curve must include the p=1 baseline")
        for p, t in self.times_ms.items():
            if p < 1 or t <= 0:
                raise ValidationError("invalid (p, time) point")

    @property
    def t1(self) -> float:
        return self.times_ms[1]

    def percent(self) -> dict[int, float]:
        """The paper's speed-up %% per processor count."""
        return {
            p: speedup_percent(self.t1, t)
            for p, t in sorted(self.times_ms.items())
            if p != 1
        }

    def ratios(self) -> dict[int, float]:
        """Conventional ``T_1 / T_p`` per processor count."""
        return {p: speedup_ratio(self.t1, t) for p, t in sorted(self.times_ms.items())}

    def serial_fraction(self) -> float:
        """Amdahl serial fraction fitted to this curve."""
        ps = sorted(self.times_ms)
        return amdahl_fit(ps, [self.times_ms[p] for p in ps])
