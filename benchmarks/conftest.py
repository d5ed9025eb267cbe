"""Benchmark harness plumbing.

Benches register paper-style tables/figures via :func:`report`; a
``pytest_terminal_summary`` hook prints everything at the end of the
run so the artifacts survive pytest's output capture and land in
``bench_output.txt``.  Session-scoped dataset fixtures keep generation
out of the timed regions.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.datasets import churn_events, standin

_REPORTS: list[tuple[str, str]] = []


def report(title: str, body: str) -> None:
    """Queue a rendered artifact for the end-of-run summary."""
    _REPORTS.append((title, body))


def baseline_record(path, payload: dict, *, name: str, gate: str,
                    measured: float) -> None:
    """Write (or update in place) a ``BENCH_*.json`` baseline.

    Every baseline carries the shared schema keys ``name`` (which
    bench), ``gate`` (the acceptance bar, human-readable), ``measured``
    (the number the gate was checked against), and ``date`` — the keys
    ``check_bench_baselines.py`` validates in CI — plus the bench's own
    *payload* merged on top.  Existing files are read first so
    multi-test benches each keep their own sections.
    """
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.update(payload)
    doc["name"] = name
    doc["gate"] = gate
    doc["measured"] = float(measured)
    doc["date"] = time.strftime("%Y-%m-%d")
    path.write_text(json.dumps(doc, indent=2) + "\n")


def baseline_section(path, section: dict) -> None:
    """Merge *section* (figures of one more test of a bench: ``{"value":
    ..., "gate": ..., "domain": ...}`` entries) into an existing
    baseline, keeping the headline ``name`` / ``gate`` / ``measured``
    its main test recorded."""
    doc = json.loads(path.read_text())
    baseline_record(path, section, name=doc["name"], gate=doc["gate"],
                    measured=doc["measured"])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("paper artifacts (reproduced)")
    for title, body in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"=== {title} ===")
        for line in body.splitlines():
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """Fraction of paper edge counts used by the bench stand-ins."""
    return 1 / 64


@pytest.fixture(scope="session")
def standins(bench_scale):
    """All four Table II stand-ins, generated once per session."""
    return {
        name: standin(name, scale=bench_scale)
        for name in ("livejournal", "pokec", "orkut", "webnotredame")
    }


@pytest.fixture(scope="session")
def medium_standin():
    """A single mid-size graph for per-kernel benches."""
    return standin("pokec", scale=1 / 64)


@pytest.fixture(scope="session")
def event_stream():
    """A churny temporal workload for the TCSR benches."""
    return churn_events(
        5_000,
        40_000,
        32,
        add_per_frame=2_000,
        delete_per_frame=1_200,
        rng=np.random.default_rng(2023),
    )
