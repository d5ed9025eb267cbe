"""Meta-test: the store protocol has one home.

A serving-path store supplies one row-decode primitive;
:class:`repro.query.stores.BaseStore` defines — once — the key check,
``neighbors_batch``'s validate → distinct → decode → expand and the
scalar surface, and its wrapper half (``WrapperStore``) the conditional
page-touch forward.  No store may grow a private copy of any of them
again, the packed ``.npz`` payload is spelled out in one file and
``.npz`` files are read and written in another, and the cluster builds
its shards through ``build_sharded_store`` instead of a private loop.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
HOME = ("query/stores.py", "BaseStore")
STORE_FILES = sorted(
    [ROOT / "csr" / name for name in ("graph.py", "packed.py", "compact.py")]
    + [path for pkg in ("disk", "reorder", "shard", "lsm", "query")
       for path in (ROOT / pkg).glob("*.py")]
)
#: ``has_edge`` overrides with a cheaper way than decode-and-bisect:
#: the memtable's verdict first, a translated or routed delegation.
HAS_EDGE_OVERRIDES = {
    ("lsm/store.py", "LsmStore"),
    ("reorder/store.py", "ReorderedStore"),
    ("shard/store.py", "ShardedStore"),
}
#: not stores: the protocol's stub and the engine's scalar front
NOT_STORES = {("query/stores.py", "GraphStore"), ("query/engine.py", "QueryEngine")}


def _definitions(paths):
    """``(file, class or None, function name, node)`` of every def."""
    found = []
    for path in paths:
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


def _strings(node):
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _calls(node):
    return {fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
            for n in ast.walk(node) if isinstance(n, ast.Call) for fn in [n.func]}


STORE_DEFS = _definitions(STORE_FILES)


def test_one_check_node():
    homes = [(rel, owner) for rel, owner, name, _ in STORE_DEFS if name == "_check_node"]
    assert homes == [HOME]


def test_one_batch_key_check():
    homes = [(rel, owner) for rel, owner, _, node in STORE_DEFS
             if any("node batch must be 1-D" in text for text in _strings(node))]
    assert homes == [HOME]


def test_one_bisect_has_edge():
    defs = [(rel, owner, node) for rel, owner, name, node in STORE_DEFS
            if name == "has_edge" and (rel, owner) not in NOT_STORES]
    assert {(rel, owner) for rel, owner, _ in defs} == {HOME} | HAS_EDGE_OVERRIDES
    bisects = [(rel, owner) for rel, owner, node in defs if "searchsorted" in _calls(node)]
    assert bisects == [HOME]


def test_one_page_touch_forward():
    forwards = [(rel, owner) for rel, owner, name, node in STORE_DEFS
                if name == "__getattr__" and "take_page_touches" in _strings(node)]
    assert forwards == [("query/stores.py", "WrapperStore")]


def test_packed_payload_spelled_out_in_one_file():
    files = set()
    for path in sorted(ROOT.rglob("*.py")):
        if any("columns_nbits" in text for text in _strings(ast.parse(path.read_text()))):
            files.add(path.relative_to(ROOT).as_posix())
    assert files == {"csr/packed.py"}


def test_npz_files_are_written_and_read_in_one_file():
    """``save_store`` / ``load_store`` are the one ``.npz`` writer and
    reader: no other module calls ``np.savez*`` or ``np.load``."""
    files = set()
    for path in sorted(ROOT.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            fn = node.func if isinstance(node, ast.Call) else None
            if (isinstance(fn, ast.Attribute) and getattr(fn.value, "id", "") == "np"
                    and fn.attr in {"savez", "savez_compressed", "load"}):
                files.add(path.relative_to(ROOT).as_posix())
    assert files == {"stores.py"}

def test_cluster_builds_shards_through_the_shard_builder():
    (build,) = [node for _, _, name, node in _definitions([ROOT / "cluster" / "build.py"])
                if name == "_shard_stores"]
    calls = _calls(build)
    assert "build_sharded_store" in calls
    assert "open_store" not in calls


def test_lsm_rebuilds_a_row_as_a_set_only_across_segments():
    """A write splices one element into its sorted row and the delta is
    merged by ``_apply_delta``'s bisection; an LSM has one base, so no
    rows are ever united: under ``lsm/`` no whole-row set operation
    survives."""
    set_ops = {"union1d", "isin", "setdiff1d"}
    users = [(rel, name) for rel, _, name, node in STORE_DEFS
             if rel.startswith("lsm/") and set_ops & _calls(node)]
    assert users == []
