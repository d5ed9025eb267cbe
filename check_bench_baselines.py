#!/usr/bin/env python
"""Validate the shared schema of every ``BENCH_*.json`` baseline.

Each benchmark records its acceptance baseline at the repo root via
``benchmarks/conftest.baseline_record``, which stamps four shared keys
on top of the bench-specific payload:

* ``name``     — the subsystem the baseline belongs to ("serve", "lsm", ...)
* ``gate``     — the acceptance criterion, as one human-readable line
* ``measured`` — the number the gate was checked against (a float)
* ``date``     — when the baseline was last recorded (YYYY-MM-DD)

Benches also record individual figures as ``{"value": ..., "gate":
..., "domain": "wall" | "virtual" | "cost" | "count"}`` sections.  A
``count`` or ``virtual`` figure is deterministic, so where its gate
reads ``== N (exact)`` the recorded value must be *N*: that is checked
here too.

CI runs this script so a baseline written by hand (or by an older
bench) cannot silently drop the keys the analysis tooling and release
notes read.  Exits non-zero with one line per problem.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REQUIRED = ("name", "gate", "measured", "date")
ROOT = Path(__file__).resolve().parent
EXACT_GATE = re.compile(r"^==\s*(\S+)\s*\(exact\)$")
EXACT_DOMAINS = ("count", "virtual")


def exact_gate_violations(node, where: str = "") -> list[str]:
    """Every ``domain: count`` / ``domain: virtual`` figure under *node*
    whose own ``== N (exact)`` gate its recorded value breaks, as ``path:
    reason`` lines."""
    if isinstance(node, list):
        return [p for i, item in enumerate(node)
                for p in exact_gate_violations(item, f"{where}[{i}]")]
    if not isinstance(node, dict):
        return []
    problems = [p for key, item in node.items()
                for p in exact_gate_violations(item, f"{where}.{key}" if where else key)]
    gate = node.get("gate")
    if node.get("domain") in EXACT_DOMAINS and isinstance(gate, str):
        match = EXACT_GATE.match(gate.strip())
        if match:
            try:
                ok = float(node.get("value")) == float(match.group(1))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                problems.append(
                    f"{where}: value {node.get('value')!r} violates its gate {gate!r}")
    return problems


def check_baseline(path: Path) -> list[str]:
    """Problems with one baseline file (empty list when it is clean)."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if not isinstance(doc, dict):
        return [f"{path.name}: top level must be a JSON object"]
    problems = []
    for key in REQUIRED:
        if key not in doc:
            problems.append(f"{path.name}: missing required key {key!r}")
    if not isinstance(doc.get("measured", 0.0), (int, float)):
        problems.append(f"{path.name}: 'measured' must be a number")
    for key in ("name", "gate", "date"):
        if key in doc and not isinstance(doc[key], str):
            problems.append(f"{path.name}: {key!r} must be a string")
    problems += [f"{path.name}: {p}" for p in exact_gate_violations(doc)]
    return problems


def main(argv: list[str] | None = None) -> int:
    paths = sorted(ROOT.glob("BENCH_*.json"))
    if not paths:
        print("no BENCH_*.json baselines found", file=sys.stderr)
        return 1
    problems = [p for path in paths for p in check_baseline(path)]
    for line in problems:
        print(line, file=sys.stderr)
    if not problems:
        print(f"{len(paths)} baselines carry the shared schema "
              f"({', '.join(REQUIRED)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
