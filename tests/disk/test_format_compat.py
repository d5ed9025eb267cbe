"""Disk format v2: codec segments, perm, and v1 backward compatibility."""

import json

import numpy as np
import pytest

from repro.csr.builder import ensure_sorted
from repro.csr.packed import build_bitpacked_csr
from repro.reorder import degree_order
from repro.disk import (
    DiskStore,
    SUPPORTED_VERSIONS,
    open_disk_store,
    write_disk_store,
)
from repro.errors import DiskFormatError, ValidationError
from repro.reorder import ReorderedStore

V1_SEGMENT_KEYS = ("codec", "enc_width", "starts_width", "starts_nbytes")


@pytest.fixture
def packed(rng):
    n, m = 300, 4000
    src, dst = ensure_sorted(rng.integers(0, n, m), rng.integers(0, n, m))
    return build_bitpacked_csr(src, dst, n, None)


def _downgrade_manifest(directory):
    """Rewrite manifest.json as a faithful format-v1 document."""
    path = directory / "manifest.json"
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    doc["version"] = 1
    doc.pop("ordering")
    doc.pop("perm")
    for seg in doc["segments"]["offsets"] + doc["segments"]["columns"]:
        for key in V1_SEGMENT_KEYS:
            seg.pop(key)
    path.write_text(json.dumps(doc))


def _assert_same_answers(store, packed, rng):
    batch = rng.integers(0, packed.num_nodes, 150)
    flat, offsets = store.neighbors_batch(batch)
    pflat, poffsets = packed.neighbors_batch(batch)
    assert np.array_equal(offsets, poffsets)
    assert np.array_equal(flat, pflat)


class TestV1Compat:
    def test_v1_manifest_opens_and_answers(self, tmp_path, rng, packed):
        write_disk_store(packed, tmp_path / "store")
        _downgrade_manifest(tmp_path / "store")
        store = open_disk_store(tmp_path / "store")
        assert isinstance(store, DiskStore)
        assert store.manifest.version == 1
        assert store.ordering == "natural"
        assert all(s.codec == "fixed" for s in store.manifest.columns)
        _assert_same_answers(store, packed, rng)
        assert store.to_csr() == packed.to_csr()

    def test_supported_versions(self):
        assert SUPPORTED_VERSIONS == (1, 2)

    def test_future_version_refused(self, tmp_path, rng, packed):
        write_disk_store(packed, tmp_path / "store")
        path = tmp_path / "store" / "manifest.json"
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DiskFormatError, match="unsupported format version"):
            open_disk_store(tmp_path / "store")


class TestV2Codecs:
    def test_adaptive_store_matches_packed(self, tmp_path, rng, packed):
        store = write_disk_store(
            packed, tmp_path / "store", codecs="auto", segment_bytes=2048
        )
        assert store.manifest.version == 2
        assert store.gap_encoded
        _assert_same_answers(store, packed, rng)
        assert store.to_csr() == packed.to_csr()

    def test_explicit_codec_list(self, tmp_path, rng, packed):
        store = write_disk_store(
            packed, tmp_path / "store",
            codecs=("fixed", "varint", "zeta2"), segment_bytes=2048,
        )
        _assert_same_answers(store, packed, rng)
        seen = {s.codec for s in store.manifest.columns}
        assert seen <= {"fixed", "varint", "zeta2"}

    def test_codec_breakdown_totals(self, tmp_path, packed):
        store = write_disk_store(
            packed, tmp_path / "store", codecs="auto", segment_bytes=2048
        )
        breakdown = store.codec_breakdown()
        assert sum(r["edges"] for r in breakdown.values()) == store.num_edges
        assert sum(r["segments"] for r in breakdown.values()) == len(
            store.manifest.columns
        )

    def test_verify_catches_corruption(self, tmp_path, packed):
        store = write_disk_store(
            packed, tmp_path / "store", codecs="auto", segment_bytes=2048
        )
        victim = tmp_path / "store" / store.manifest.columns[0].filename
        raw = bytearray(victim.read_bytes())
        raw[0] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(DiskFormatError, match="checksum"):
            open_disk_store(tmp_path / "store")


class TestV2Perm:
    def test_reordered_disk_roundtrip(self, tmp_path, rng, packed):
        graph = packed.to_csr()
        perm = degree_order(graph)
        src, dst = graph.edges()
        relabeled = build_bitpacked_csr(
            perm[src], perm[dst], graph.num_nodes, None, sort=True
        )
        write_disk_store(
            relabeled, tmp_path / "store",
            codecs="auto", ordering="degree", perm=perm, segment_bytes=2048,
        )
        store = open_disk_store(tmp_path / "store")
        assert isinstance(store, ReorderedStore)
        assert store.ordering == "degree"
        _assert_same_answers(store, packed, rng)

    def test_perm_must_be_valid(self, tmp_path, packed):
        bad = np.zeros(packed.num_nodes, dtype=np.int64)
        with pytest.raises(ValidationError):
            write_disk_store(packed, tmp_path / "store", perm=bad)

    def test_perm_entries_must_lie_in_range(self, tmp_path):
        two = build_bitpacked_csr(np.array([0]), np.array([1]), 2, None, sort=True)
        with pytest.raises(ValidationError, match=r"must lie in \[0, 2\)"):
            write_disk_store(two, tmp_path / "store", perm=[0, -1])
