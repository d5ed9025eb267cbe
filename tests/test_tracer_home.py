"""Meta-test: construction and serving share one tracer.

An executor reports every phase through one slot, ``Executor.tracer``
(:meth:`repro.obs.Tracer.phase`): no second attribution mechanism — a
per-machine phase record list, its knob, or a cost callback — may grow
back under ``src/repro``.  The slot is set in one place per purpose: the
executor's constructor defaults it, and the two serving call sites that
scope it to traced work (the kernel step and a traced job slice) put
:data:`~repro.obs.NULL_TRACER` back in a ``finally``.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
RETIRED = {"PhaseRecord", "record_trace", "cost_observer", "phase_breakdown", "on_cost"}
#: Where ``<executor>.tracer`` is scoped around traced serving work.
SCOPED = {
    ("serve/server.py", "GraphQueryServer", "run_kernels"),
    ("serve/loop.py", "ServeLoop", "_advance_job"),
}
#: Where an object sets its own ``self.tracer``: the executor's default
#: slot, and the serve front door's tracer (not an executor's).
OWN = {
    ("parallel/machine.py", "Executor", "__init__"),
    ("serve/loop.py", "ServeLoop", "__init__"),
}


def _trees():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(), filename=str(path))


def _functions():
    """``(file, class or None, function name, node)`` of every def."""
    for rel, tree in _trees():
        owners = {
            id(item): node.name
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield rel, owners.get(id(node)), node.name, node


def _names(node):
    """Every identifier a node defines or reads."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.arg):
        return {node.arg}
    if isinstance(node, ast.keyword):
        return {node.arg}
    if isinstance(node, ast.alias):
        return {node.name.rsplit(".", 1)[-1], node.asname}
    return set()


def _tracer_assignments(fn):
    """``(target object, value, in a finally block)`` of every
    ``<x>.tracer = ...`` in *fn*."""
    finals = {id(n) for t in ast.walk(fn) if isinstance(t, ast.Try)
              for stmt in t.finalbody for n in ast.walk(stmt)}
    return [
        (ast.unparse(target.value), ast.unparse(node.value), id(node) in finals)
        for node in ast.walk(fn) if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute) and target.attr == "tracer"
    ]


def test_no_second_attribution_mechanism():
    stray = sorted(
        (rel, name)
        for rel, tree in _trees()
        for node in ast.walk(tree)
        for name in _names(node) & RETIRED
    )
    assert not stray, f"report phases through Executor.tracer: {stray}"


def test_executor_tracer_is_set_in_three_places():
    found = {}
    for rel, owner, name, fn in _functions():
        assigned = _tracer_assignments(fn)
        if assigned:
            found[(rel, owner, name)] = assigned
    assert set(found) == SCOPED | OWN
    for home in OWN:
        assert [obj for obj, _, _ in found[home]] == ["self"]
    for home in SCOPED:
        (obj, traced, in_finally), (reset_obj, reset, reset_in_finally) = found[home]
        assert obj == reset_obj == "executor"
        assert traced != "NULL_TRACER" and not in_finally
        assert reset == "NULL_TRACER" and reset_in_finally
