"""The on-disk layout: manifest parsing, segment planning, integrity."""

import json

import numpy as np
import pytest

from repro.bitpack.segcodec import plan_row_segments
from repro.disk.format import (
    DEFAULT_SEGMENT_BYTES,
    FORMAT_VERSION,
    MANIFEST_NAME,
    Manifest,
    Segment,
    file_crc32,
    plan_field_segments,
)
from repro.errors import DiskFormatError, ReproError


def _manifest(**overrides) -> Manifest:
    base = dict(
        version=FORMAT_VERSION,
        num_nodes=3,
        num_edges=4,
        offset_width=3,
        column_width=2,
        gap_encoded=False,
        segment_bytes=DEFAULT_SEGMENT_BYTES,
        offsets=(Segment("offsets-00000.seg", 0, 4, 0, 4, 2, 0),),
        columns=(Segment("columns-00000.seg", 0, 4, 0, 3, 1, 0),),
    )
    base.update(overrides)
    return Manifest(**base)


class TestManifest:
    def test_json_roundtrip(self):
        m = _manifest(gap_encoded=True)
        assert Manifest.from_json(m.to_json()) == m

    def test_save_load_roundtrip(self, tmp_path):
        m = _manifest()
        m.save(tmp_path)
        assert Manifest.load(tmp_path) == m

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DiskFormatError, match=MANIFEST_NAME):
            Manifest.load(tmp_path)

    def test_invalid_json(self):
        with pytest.raises(DiskFormatError, match="not valid JSON"):
            Manifest.from_json("{nope")

    def test_wrong_format_key(self):
        with pytest.raises(DiskFormatError, match="not a repro disk-store"):
            Manifest.from_json(json.dumps({"format": "something-else"}))

    def test_future_version_refused(self):
        doc = json.loads(_manifest().to_json())
        doc["version"] = FORMAT_VERSION + 1
        with pytest.raises(DiskFormatError, match="unsupported format version"):
            Manifest.from_json(json.dumps(doc))

    def test_missing_field_is_clean(self):
        doc = json.loads(_manifest().to_json())
        del doc["num_nodes"]
        with pytest.raises(DiskFormatError, match="malformed manifest"):
            Manifest.from_json(json.dumps(doc))

    def test_malformed_segment_is_clean(self):
        doc = json.loads(_manifest().to_json())
        del doc["segments"]["columns"][0]["crc32"]
        with pytest.raises(DiskFormatError, match="malformed manifest"):
            Manifest.from_json(json.dumps(doc))

    def test_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            Manifest.from_json("[]")


class TestVerify:
    def _store_dir(self, tmp_path):
        off = b"\x12\x34"
        col = b"\x56"
        (tmp_path / "offsets-00000.seg").write_bytes(off)
        (tmp_path / "columns-00000.seg").write_bytes(col)
        import zlib

        m = _manifest(
            offsets=(Segment("offsets-00000.seg", 0, 4, 0, 4, 2, zlib.crc32(off)),),
            columns=(Segment("columns-00000.seg", 0, 4, 0, 3, 1, zlib.crc32(col)),),
        )
        m.save(tmp_path)
        return m

    def test_verify_clean(self, tmp_path):
        self._store_dir(tmp_path).verify(tmp_path)

    def test_missing_segment_named(self, tmp_path):
        m = self._store_dir(tmp_path)
        (tmp_path / "columns-00000.seg").unlink()
        with pytest.raises(DiskFormatError, match="columns-00000.seg.*missing"):
            m.verify(tmp_path)

    def test_size_mismatch_named(self, tmp_path):
        m = self._store_dir(tmp_path)
        (tmp_path / "columns-00000.seg").write_bytes(b"\x56\x00")
        with pytest.raises(DiskFormatError, match="columns-00000.seg.*2 bytes"):
            m.verify(tmp_path)

    def test_corrupt_payload_named(self, tmp_path):
        m = self._store_dir(tmp_path)
        (tmp_path / "offsets-00000.seg").write_bytes(b"\x12\x35")
        with pytest.raises(DiskFormatError, match="offsets-00000.seg.*checksum"):
            m.verify(tmp_path)

    def test_file_crc32_streams(self, tmp_path):
        import zlib

        payload = bytes(range(256)) * 100
        p = tmp_path / "blob"
        p.write_bytes(payload)
        assert file_crc32(p, chunk_bytes=37) == zlib.crc32(payload)


class TestPlanning:
    def test_field_segments_cover_exactly(self):
        plan = plan_field_segments(1000, 13, 64)
        assert plan[0][0] == 0 and plan[-1][1] == 1000
        for (a0, a1), (b0, b1) in zip(plan, plan[1:]):
            assert a1 == b0
        for lo, hi in plan:
            assert hi > lo
            assert -(-(hi - lo) * 13 // 8) <= 64  # packed bytes

    def test_field_segments_at_least_one_field(self):
        # a budget smaller than one field still makes progress
        assert plan_field_segments(3, 64, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_row_segments_never_straddle_rows(self, rng):
        deg = rng.integers(0, 50, 200)
        indptr = np.concatenate([[0], np.cumsum(deg)]).astype(np.int64)
        plan = plan_row_segments(indptr, 17, 256)
        assert plan[0][0] == 0 and plan[-1][1] == 200
        for (a0, a1), (b0, b1) in zip(plan, plan[1:]):
            assert a1 == b0
        for r0, r1 in plan:
            assert r1 > r0

    def test_oversized_row_gets_own_segment(self):
        indptr = np.array([0, 1, 5000, 5001], dtype=np.int64)
        plan = plan_row_segments(indptr, 32, 64)
        assert (1, 2) in plan  # the huge row is one (oversized) segment

    def test_empty_graph_plans(self):
        assert plan_row_segments(np.array([0], dtype=np.int64), 8, 64) == []
        assert plan_field_segments(0, 8, 64) == []
