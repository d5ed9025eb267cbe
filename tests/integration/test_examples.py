"""Smoke tests: the shipped examples must actually run.

Each example executes in a subprocess with the repo's interpreter; we
check exit status and a couple of landmark output lines, not exact
text.  The slowest examples are exercised at reduced scale where they
accept one.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "simulated ms on p=16" in proc.stdout
        assert "edge existence" in proc.stdout

    def test_paper_walkthrough(self):
        proc = run_example("paper_walkthrough.py")
        assert proc.returncode == 0, proc.stderr
        assert "iA (offsets):" in proc.stdout
        assert "Figure 4" in proc.stdout
        assert "phase" in proc.stdout  # trace table

    def test_parallel_scaling_report_small_scale(self):
        proc = run_example("parallel_scaling_report.py", "0.0002")
        assert proc.returncode == 0, proc.stderr
        assert "Speed-Up (%)" in proc.stdout
        assert "serial fraction" in proc.stdout

    @pytest.mark.parametrize(
        "name,landmark",
        [
            ("social_network_queries.py", "influence spread"),
            ("time_evolving_graph.py", "TCSR"),
            ("compression_report.py", "degree reordering"),
        ],
    )
    def test_remaining_examples(self, name, landmark):
        proc = run_example(name)
        assert proc.returncode == 0, proc.stderr
        assert landmark in proc.stdout
