"""Smoke and schema test of the end-to-end benchmark.

Not part of tier-1 (``testpaths`` is ``tests``); run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def sweep(tmp_path, trace: int) -> dict:
    """Every workload once at 1/256 scale, 2 rounds; must take < 30 s."""
    out = tmp_path / f"smoke-{trace}.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--rounds", "2", "--scale", "1/256",
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 30.0, f"smoke sweep took {elapsed:.1f} s"
    return json.loads(out.read_text())["runs"]


def test_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_exactly_the_declared_names(tmp_path, trace, key):
    runs = sweep(tmp_path, trace)
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert sorted(runs) == sorted(WORKLOADS)
    for workload, (run,) in runs.items():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, workload
        assert {k: v["unit"] for k, v in run["metrics"].items()} == declared, workload
        values = {k: v["value"] for k, v in run["metrics"].items()}
        if trace:
            # per-layer self times must add up to the driver's wall time
            assert abs(values["harness.share_sum_frac"] - 1.0) <= 0.05, workload
        else:
            assert all(value > 0 for value in values.values()), workload


class FakeSlot:
    """A reply slot as the oracle reads it."""

    status = "done"

    def __init__(self, value, enqueue_ns=0.0, complete_ns=0.0):
        self.value = value
        self.request = SimpleNamespace(enqueue_ns=enqueue_ns, complete_ns=complete_ns)

    def result(self):
        return self.value


def test_oracle_catches_wrong_stale_and_misapplied_answers():
    sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]
    import numpy as np
    from check import MixedOracle, ReadOracle
    from inputs import EDGE, INSERT, NEIGHBORS, RequestBatch

    src, dst, n = np.array([0, 0, 1]), np.array([1, 2, 2]), 4
    kind = np.array([NEIGHBORS, INSERT, NEIGHBORS, EDGE])
    batch = RequestBatch(kind, np.array([0, 0, 0, 0]), np.array([0, 3, 0, 3]))
    old, new = np.array([1, 2]), np.array([1, 2, 3])

    def replies(first, applied, third, fourth):
        # the first read completes after the write was submitted (t=5 <= 9):
        # either state is right for it; the later reads must see the write
        return [FakeSlot(first, 1, 9), FakeSlot(applied, 5, 5),
                FakeSlot(third, 10, 12), FakeSlot(fourth, 11, 12)]

    for first in (old, new):
        assert MixedOracle(src, dst, n).check_phase(batch, replies(first, True, new, True)) == (4, 0)
    assert MixedOracle(src, dst, n).check_phase(batch, replies(old, True, old, True)) == (4, 1)
    assert MixedOracle(src, dst, n).check_phase(batch, replies(old, False, new, True)) == (4, 1)
    assert MixedOracle(src, dst, n).check_phase(batch, replies(old, True, new, False)) == (4, 1)

    reads = RequestBatch(kind[[0, 3]], np.array([0, 0]), np.array([0, 2]))
    oracle = ReadOracle(src, dst, n)
    assert oracle.check_reads(reads, [FakeSlot(old), FakeSlot(True)]) == (2, 0)
    assert oracle.check_reads(reads, [FakeSlot(new), FakeSlot(False)]) == (2, 2)
