"""Meta-test: edge ordering has one home.

``np.lexsort`` may be called in exactly one place under ``src/repro`` —
the wide-id fallback of :mod:`repro.parallel.sort` — so no layer grows
a private (source, destination) sort again.  The temporal structures'
three-key event sorts (time is a third key, which the fused two-id key
does not cover) are allow-listed by file.

The permutation check has one home too: ``check_permutation`` in
:mod:`repro.reorder.orderings` (shape, then range, then coverage) is
what ``relabel``, ``ReorderedStore`` and the disk builder's perm
segment call, so no layer keeps a private ``seen[perm] = True`` copy
that a negative or too-large entry slips past.

The order *check* has the same home: every builder refuses an unsorted
edge list through ``edges_sorted``, and ``load_store`` refuses a saved
file holding an unsorted row with it, so every store's rows are sorted
and the query layer keeps no order checks or unsorted-row paths of its
own.
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


#: the order predicate, and the functions that refuse an unsorted list with it
PREDICATE = "edges_sorted"
CHECKS = {
    "csr/builder.py": ["build_csr", "build_csr_serial"],
    "csr/graph.py": ["_validate"],
    "shard/build.py": ["build_sharded_store"],
    "stores.py": ["_check_stored_order"],
}
#: names of the order checks and unsorted-row state the query layer dropped
RETIRED = ("all_sorted", "_is_sorted", "_unsorted", "rows_sorted")


def _called(node) -> str:
    fn = node.func
    return fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")


def _trees():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(), filename=str(path))


def _lexsort_calls():
    return [
        (rel, node.lineno)
        for rel, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called(node) == "lexsort"
    ]


def test_lexsort_only_in_the_ordering_home():
    calls = _lexsort_calls()
    stray = [c for c in calls if c[0] != HOME and c[0] not in ALLOWED]
    assert not stray, (
        f"np.lexsort outside the ordering home ({HOME}): {stray} — use "
        "ensure_sorted / sort_edges / sort_within_rows"
    )
    assert [c[0] for c in calls].count(HOME) == 1, "the home keeps one fallback lexsort"


def test_the_order_check_has_one_home():
    defined = [rel for rel, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == PREDICATE]
    assert defined == [HOME]
    for rel, names in CHECKS.items():
        tree = ast.parse((ROOT / rel).read_text())
        funcs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        for name in names:
            calls = [_called(node) for node in ast.walk(funcs[name]) if isinstance(node, ast.Call)]
            assert PREDICATE in calls, f"{rel}::{name} must check order with {PREDICATE}"
    stray = [(path.relative_to(ROOT).as_posix(), name)
             for path in sorted(ROOT.rglob("*.py"))
             for name in RETIRED if name in path.read_text()]
    assert not stray, f"retired order-check names are back: {stray}"


#: the permutation check's home, and the functions that refuse a bad perm with it
PERM_HOME = "reorder/orderings.py"
PERM_CHECK = "check_permutation"
PERM_CALLERS = {
    "reorder/orderings.py": ["relabel"],
    "reorder/store.py": ["__init__"],
    "disk/build.py": ["_write_perm_segment"],
}


def test_the_permutation_check_has_one_home():
    defined = [rel for rel, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == PERM_CHECK]
    assert defined == [PERM_HOME]
    for rel, names in PERM_CALLERS.items():
        tree = ast.parse((ROOT / rel).read_text())
        funcs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        for name in names:
            calls = [_called(node) for node in ast.walk(funcs[name]) if isinstance(node, ast.Call)]
            assert PERM_CHECK in calls, f"{rel}::{name} must check its perm with {PERM_CHECK}"
    # the coverage refusal is raised in the home alone
    stray = [path.relative_to(ROOT).as_posix() for path in sorted(ROOT.rglob("*.py"))
             if "must be a permutation of" in path.read_text()]
    assert stray == [PERM_HOME], f"a private permutation check is back: {stray}"
