"""Noise guard: how far to trust this run's wall-clock numbers, and the
one thing the harness does to the process to quieten them.

A fixed calibration kernel runs before and after every timed round (and
set-up); a spin probe at start-up looks for scheduler gaps.  The kernel's
lower quartile over the run, relative to the value stored beside this
file, says how much slower than the reference the box ran
(:func:`slowdown`): ``run.py`` reports wall-clock end-to-end figures
calibrated by it, and the raw ones beside them.
"""

from __future__ import annotations

import ctypes
import json
import resource
from pathlib import Path
from time import perf_counter_ns

import numpy as np

CALIBRATION_FILE = Path(__file__).with_name("calibration.json")
#: a run is marked noisy when its calibration q25 is this far off the stored one
NOISY_FRACTION = 0.15

_RNG = np.random.default_rng(0)
_SMALL = [_RNG.integers(0, 100_000, 64) for _ in range(50)] * 4


def q25(values) -> float:
    """Lower quartile: the estimator every wall-clock figure uses
    (interference only ever adds time)."""
    return float(np.percentile(values, 25))


def recycle_heap() -> bool:
    """Make glibc serve every allocation from the heap and never trim it.

    On this kind of VM memory a process gives back is taken from the
    guest, so touching it again faults through to the host: a fresh
    240 MB array cost 4-9 s (against 0.07 s recycled), more than the
    work done in it, and twice as much one minute as the next.  With the
    heap kept, every round after the warm-up runs in memory the process
    already owns, as a long-lived server's would.  Returns whether the
    allocator took the setting (it is glibc's; elsewhere nothing changes).
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_max = -1, -4
    return bool(mallopt(m_mmap_max, 0) and mallopt(m_trim_threshold, 2**31 - 1))


def calibrate_ms() -> float:
    """Wall milliseconds of the fixed calibration kernel (~15 ms).

    It is built like the serving path - many small NumPy calls between
    Python object and dict bookkeeping - because that is what slows most
    when the box does: over minutes this VM runs such code up to 1.8x
    slower and back, vectorised NumPy over large arrays only 1.2x, and a
    kernel of the second kind under-corrects every workload.
    """
    t0 = perf_counter_ns()
    slots = {}
    for i in range(20_000):
        slots[i] = [i, None, float(i)]
    for i in range(0, 20_000, 2):
        del slots[i]
    for keys in _SMALL:
        uniq, inverse = np.unique(keys, return_inverse=True)
        np.cumsum(np.diff(uniq))
        np.concatenate([uniq, np.repeat(uniq[:8], 3)])[inverse[:16]]
        np.searchsorted(uniq, keys[:8])
        int(uniq.min()) + int(uniq.max())
    return (perf_counter_ns() - t0) / 1e6


def spin_probe_ms(seconds: float = 0.5) -> float:
    """Longest gap, in ms, between two clock reads of a busy loop."""
    worst = 0
    last = start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while last < deadline:
        now = perf_counter_ns()
        if now - last > worst:
            worst = now - last
        last = now
    return worst / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def slowdown(calibration_ms) -> float:
    """How much slower than the stored reference the box ran while the
    samples were taken: their lower quartile over ``calibration.json``'s."""
    stored = json.loads(CALIBRATION_FILE.read_text())["calib_ms_q25"]
    return q25(calibration_ms) / stored


def verdict(factor: float) -> str:
    """``quiet`` / ``noisy`` for a :func:`slowdown` factor."""
    return f"{'noisy' if abs(factor - 1.0) > NOISY_FRACTION else 'quiet'} (box {factor:.2f}x the stored calibration)"
