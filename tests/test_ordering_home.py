"""Meta-test: edge ordering has one home.

``np.lexsort`` may be called in exactly one place under ``src/repro`` —
the wide-id fallback of :mod:`repro.parallel.sort` — so no layer grows
a private (source, destination) sort again.  The temporal structures'
three-key event sorts (time is a third key, which the fused two-id key
does not cover) are allow-listed by file.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
HOME = "parallel/sort.py"
ALLOWED = {
    "temporal/edgelog.py",
    "temporal/evelog.py",
    "temporal/events.py",
}


def _lexsort_calls():
    calls = []
    for path in sorted(ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
                if name == "lexsort":
                    calls.append((path.relative_to(ROOT).as_posix(), node.lineno))
    return calls


def test_lexsort_only_in_the_ordering_home():
    calls = _lexsort_calls()
    stray = [c for c in calls if c[0] != HOME and c[0] not in ALLOWED]
    assert not stray, (
        f"np.lexsort outside the ordering home ({HOME}): {stray} — use "
        "ensure_sorted / sort_edges / sort_within_rows"
    )
    assert [c[0] for c in calls].count(HOME) == 1, "the home keeps one fallback lexsort"
