"""Meta-test: store, server and format construction has one home each.

``cli.py`` is a *caller* of the library's construction paths, never a
second copy of one: the binary edge-list magic is spelled once under
``src/`` (:mod:`repro.csr.io`), ordering + codecs + disk directory are
composed in :func:`repro.disk.pack_disk_store`, a read-only store gets
its write path in :func:`repro.lsm.writable_overlay`, every server comes
from :func:`repro.serve.open_server`, and ``info`` reads members off
the store instead of dispatching on its class.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
CLI = ast.parse((ROOT / "cli.py").read_text())
STORE_CLASSES = {"CompactStore", "DiskStore", "ReorderedStore", "ShardedStore",
                 "BitPackedCSR"}


def _called_names(tree):
    """Name of every call target in *tree* (``f(...)`` and ``x.f(...)``)."""
    return {
        node.func.attr if isinstance(node.func, ast.Attribute)
        else getattr(node.func, "id", "")
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    }


def test_binary_edge_list_magic_is_spelled_once():
    counts = {p.relative_to(ROOT).as_posix(): p.read_text().count("REPROEL1")
              for p in sorted(ROOT.rglob("*.py"))}
    assert {f: c for f, c in counts.items() if c} == {"csr/io.py": 1}


def test_cli_constructs_nothing_itself():
    assert not _called_names(CLI) & {
        "write_disk_store", "compute_ordering", "LsmStore", "GraphQueryServer"}


def test_cli_imports_no_store_class():
    imported = {alias.name for node in ast.walk(CLI)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not imported & STORE_CLASSES


def test_single_store_overlay_has_one_home():
    """``LsmStore(n, [store], ...)`` — an overlay over one wrapped
    store — is built in :func:`repro.lsm.build.writable_overlay` only."""
    homes = []
    for path in sorted(ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", "") == "LsmStore"
                        and len(node.args) > 1
                        and isinstance(node.args[1], ast.List)
                        and len(node.args[1].elts) == 1):
                    homes.append((path.relative_to(ROOT).as_posix(), fn.name))
    assert homes == [("lsm/build.py", "writable_overlay")]
