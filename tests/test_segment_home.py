"""Meta-test: the column segment has one home, ``bitpack/segcodec.py``.

A codec is one entry of that module's table, so no other module may
name one; one generator plans and encodes row-aligned segments for the
compact store and both disk builders; one record
(:class:`~repro.bitpack.segcodec.SegmentEncoding`) describes a segment
until the disk format persists it.
"""

import ast
from pathlib import Path

import repro
from repro.bitpack.segcodec import SEGMENT_CODECS

ROOT = Path(repro.__file__).parent
TREES = {
    path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
    for path in sorted(ROOT.rglob("*.py"))
}


def _definitions(name):
    return [
        rel for rel, tree in TREES.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
    ]


def _callers(name):
    """``(module, enclosing function)`` of every call of *name*."""
    found = []
    for rel, tree in TREES.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                target = getattr(node, "func", None)
                if isinstance(node, ast.Call) and name in (
                        getattr(target, "id", None), getattr(target, "attr", None)):
                    found.append((rel, fn.name))
    return found


def test_no_module_outside_bitpack_names_a_codec():
    """Every ``if codec == "varint"`` ladder went into the table; the
    one literal left is the v1 schema default of ``disk.format.Segment``."""
    named = [
        (rel, node.value)
        for rel, tree in TREES.items() if not rel.startswith("bitpack/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in SEGMENT_CODECS
    ]
    assert named == [("disk/format.py", "fixed")]


def test_plan_and_encode_loop_have_one_definition_and_one_caller():
    home = "bitpack/segcodec.py"
    for name in ("plan_row_segments", "row_segments", "encode_row_segment",
                 "encode_row_segments"):
        assert _definitions(name) == [home], name
    assert _callers("plan_row_segments") == [(home, "row_segments")]
    assert _callers("encode_row_segment") == [(home, "encode_row_segments")]
    # the three entry points all draw from the one generator
    assert {rel for rel, _ in _callers("encode_row_segments")} == {
        "csr/compact.py", "disk/build.py"}


def test_the_replaced_copies_are_gone():
    for name in ("CompactSegment", "decode_rows", "_write_encoded_segment",
                 "_write_segment", "_measure", "_encode_one"):
        assert _definitions(name) == [], name
    # one codec table: no whole-array codec registry, wrapper class or
    # scalar Elias coder beside SEGMENT_CODECS
    for name in ("register_codec", "get_codec", "available_codecs", "Encoded",
                 "BitWriter"):
        assert _definitions(name) == [], name
    codec_classes = [
        (rel, node.name) for rel, tree in TREES.items() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("Codec")
    ]
    assert codec_classes == [("bitpack/segcodec.py", "SegmentCodec")]
    for gone in ("bitpack/registry.py", "bitpack/elias.py"):
        assert not (ROOT / gone).exists(), gone


def test_compact_store_imports_nothing_from_disk():
    imported = [
        node.module or "" for node in ast.walk(TREES["csr/compact.py"])
        if isinstance(node, ast.ImportFrom)
    ]
    assert imported and not [m for m in imported if "disk" in m]
