"""Meta-test: the serve loop has one home.

The request / job lifecycle of a serving front door —
:class:`repro.serve.loop.ServeLoop` — is defined once under
``src/repro``: neither :class:`GraphQueryServer` nor the cluster
:class:`Router` may grow a private copy of any of its ten methods
again, and a shard worker reaches the kernels through the server's
kernel step, not through a front door of its own.  ``_bind(fn, cid)``
closures, once copied into fourteen modules, stay folded into
``Executor.map_chunks``.  The per-request path stays straight-line: no
``Request.key`` tuple in the batch plan, one queue-depth sample per
submit.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
HOME = ("serve/loop.py", "ServeLoop")
LIFECYCLE = {
    "submit", "submit_job", "active_jobs", "_pump_jobs", "_advance_job",
    "_finish_job", "pump", "drain", "_end_root", "snapshot",
}
#: ``snapshot`` is also what unrelated value objects call their own
#: freeze method; only front doors (``serve/``, ``cluster/``) count.
OTHER_SNAPSHOTS = {
    ("serve/metrics.py", "ServeMetrics"),
    ("obs/registry.py", "MetricsRegistry"),
    ("temporal/tcsr.py", "TemporalCSR"),
}


def _definitions():
    """``(file, class or None, function name, node)`` of every def."""
    found = []
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {
            id(item): node.name
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((rel, owners.get(id(node)), node.name, node))
    return found


def test_each_lifecycle_method_has_one_definition():
    homes = {}
    for rel, owner, name, _ in _definitions():
        if name in LIFECYCLE and (rel, owner) not in OTHER_SNAPSHOTS:
            homes.setdefault(name, []).append((rel, owner))
    assert homes == {name: [HOME] for name in LIFECYCLE}


def test_no_private_bind_closures():
    stray = [(rel, name) for rel, _, name, _ in _definitions() if name == "_bind"]
    assert not stray, f"use executor.map_chunks(fn, range(p), label=...): {stray}"


def test_shard_worker_runs_no_front_door():
    (serve,) = [node for rel, owner, name, node in _definitions()
                if (rel, owner, name) == ("cluster/worker.py", "ShardWorker", "serve")]
    called = {n.func.attr for n in ast.walk(serve)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)}
    assert "run_kernels" in called
    assert not called & {"submit", "drain", "pump"}
    built = {n.func.id for n in ast.walk(serve)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert not {name for name in built if name.endswith("Request")}


def test_per_request_path_builds_no_key_and_no_second_depth_sample():
    """The batch plan keys its dedup dicts by the ids, never by a
    per-request ``Request.key`` tuple, and ``submit`` reads the queue
    depth once and samples it once (the admission controller's mark)."""
    found = {(rel, owner, name): node for rel, owner, name, node in _definitions()}
    plan = found[("serve/coalescer.py", "MicroBatch", "plan")]
    submit = found[HOME + ("submit",)]
    assert not [n for n in ast.walk(plan)
                if isinstance(n, ast.Attribute) and n.attr == "key"]
    touched = {n.attr for n in ast.walk(submit) if isinstance(n, ast.Attribute)}
    assert not touched & {"record_depth", "pending"}


def test_build_cluster_overrides_no_front_door_knob():
    (build,) = [node for rel, _, name, node in _definitions()
                if (rel, name) == ("cluster/build.py", "build_cluster")]
    keywords = {kw.arg for n in ast.walk(build) if isinstance(n, ast.Call)
                for kw in n.keywords}
    assert not keywords & {"max_wait_ns", "queue_capacity", "max_batch_size"}
