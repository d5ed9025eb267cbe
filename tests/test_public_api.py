"""Meta-tests on the public surface: exports resolve, docs exist.

These keep the documentation deliverable honest: every name a package
advertises in ``__all__`` must exist and every public class/function
must carry a docstring.
"""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.parallel",
    "repro.bitpack",
    "repro.csr",
    "repro.temporal",
    "repro.query",
    "repro.baselines",
    "repro.disk",
    "repro.reorder",
    "repro.lsm",
    "repro.shard",
    "repro.stores",
    "repro.datasets",
    "repro.analysis",
    "repro.serve",
    "repro.cluster",
    "repro.algorithms",
    "repro.obs",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"
    for export in getattr(module, "__all__", []):
        assert hasattr(module, export), f"{name}.__all__ lists missing {export!r}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_objects_documented(name):
    module = importlib.import_module(name)
    undocumented = []
    for export in getattr(module, "__all__", []):
        obj = getattr(module, export)
        if inspect.ismodule(obj):
            continue
        if inspect.isclass(obj) or callable(obj):
            if not inspect.getdoc(obj):
                undocumented.append(export)
    assert not undocumented, f"{name}: missing docstrings for {undocumented}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_classes_document_their_methods(name):
    module = importlib.import_module(name)
    missing = []
    for export in getattr(module, "__all__", []):
        obj = getattr(module, export)
        if not inspect.isclass(obj):
            continue
        for meth_name, meth in inspect.getmembers(obj, inspect.isfunction):
            if meth_name.startswith("_"):
                continue
            if meth.__qualname__.split(".")[0] != obj.__name__:
                continue  # inherited
            if not inspect.getdoc(meth):
                missing.append(f"{export}.{meth_name}")
    assert not missing, f"{name}: undocumented public methods {missing}"


def test_version_is_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_cli_entrypoint_importable():
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.prog == "repro"
