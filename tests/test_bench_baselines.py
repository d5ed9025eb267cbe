"""``check_bench_baselines.py``: schema of the committed baselines, and
the exact gates of their deterministic (``domain: count`` / ``domain:
virtual``) figures."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location(
    "check_bench_baselines", ROOT / "check_bench_baselines.py"
)
checker = importlib.util.module_from_spec(spec)
spec.loader.exec_module(checker)


def test_committed_baselines_are_clean():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    assert [p for path in paths for p in checker.check_baseline(path)] == []


def test_exact_count_gate_is_enforced(tmp_path):
    doc = {
        "name": "x", "gate": "g", "measured": 1.0, "date": "2026-10-02",
        "section": {
            "calls": {"value": 3, "gate": "== 1 (exact)", "domain": "count"},
            "reads": {"value": 1.0, "gate": "== 1.0 (exact)", "domain": "count"},
            "bound": {"value": 12.06, "gate": "<= 14", "domain": "count"},
            "ratio": {"value": 0.2, "gate": "== 1 (exact)", "domain": "wall"},
            "missing": {"gate": "== 0 (exact)", "domain": "count"},
            "qps": {"value": 226031.7454239363, "domain": "virtual",
                    "gate": "== 226031.7454239363 (exact)"},
            "p99": {"value": 24.3, "domain": "virtual",
                    "gate": "== 24.29193543864694 (exact)"},
        },
        "runs": [{"copies": {"value": 5, "gate": "==0 (exact)", "domain": "count"}}],
    }
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(doc))
    problems = checker.check_baseline(path)
    assert len(problems) == 4
    assert any("section.p99: value 24.3 violates" in p for p in problems)
    assert any("section.calls: value 3 violates" in p for p in problems)
    assert any("section.missing" in p for p in problems)
    assert any("runs[0].copies" in p for p in problems)
