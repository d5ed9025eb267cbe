"""The on-disk store layout: versioned manifest + raw segment files.

A :class:`~repro.disk.DiskStore` directory holds

* ``manifest.json`` — format version, graph sizes, packed bit widths,
  and a **segment table** describing every raw binary file: which run
  of packed fields (and, for the edge column, which run of graph rows)
  it covers, its exact byte length, and a CRC-32 of its payload;
* ``offsets-NNNNN.seg`` / ``columns-NNNNN.seg`` — the packed offset
  (``iA``) and edge (``jA``) columns, split into independently packed
  segments.  Each segment restarts its bit stream at bit 0, so a
  segment file can be memory-mapped and decoded on its own; column
  segments are cut at *row* boundaries, so any row's payload lives in
  exactly one file and a point query faults in only that file's pages.

This module owns parsing, serialisation, and integrity checking of
that layout.  Every malformed-input path raises
:class:`~repro.errors.DiskFormatError` (a :class:`ReproError`), never a
raw ``KeyError``/``json`` traceback.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

from ..errors import DiskFormatError

__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "MANIFEST_NAME",
    "PAGE_BYTES",
    "DEFAULT_SEGMENT_BYTES",
    "Segment",
    "Manifest",
    "file_crc32",
    "plan_field_segments",
]

# Version 2 added per-segment codec tags (``codec``/``enc_width``/
# ``starts_width``/``starts_nbytes``), the ``ordering`` name, and an
# optional ``perm`` segment.  Version-1 manifests parse unchanged: every
# new field defaults to the fixed-width behaviour v1 hard-coded.
FORMAT_VERSION = 2
SUPPORTED_VERSIONS = (1, 2)
MANIFEST_NAME = "manifest.json"

# OS page granularity assumed by the page-touch cost accounting.
PAGE_BYTES = 4096

# Target payload bytes per segment file.  Small enough that a point
# query maps a bounded window, large enough that the segment table and
# per-file syscall overheads stay negligible.
DEFAULT_SEGMENT_BYTES = 1 << 20


@dataclass(frozen=True, slots=True)
class Segment:
    """One raw binary segment file of a packed column.

    ``first_field``/``num_fields`` locate the segment's packed fields
    in the column's global field stream.  For edge-column segments
    ``first_row``/``num_rows`` give the run of graph rows whose
    payload the segment holds (cut at row boundaries, so rows never
    straddle files); offset-column segments keep both at the field
    run's values for uniformity.  ``nbytes`` is the exact file length
    and ``crc32`` the checksum of its payload.

    Format-v2 codec fields (defaults describe every v1 segment):
    ``codec`` names the segment's edge codec; ``enc_width`` is its
    codec-specific parameter (fixed width, or the zeta shard *k*);
    variable-length codecs prepend a packed row-starts table of
    ``starts_nbytes`` bytes whose entries are ``starts_width`` bits
    wide, followed by the payload.
    """

    filename: str
    first_field: int
    num_fields: int
    first_row: int
    num_rows: int
    nbytes: int
    crc32: int
    codec: str = "fixed"
    enc_width: int = 0
    starts_width: int = 0
    starts_nbytes: int = 0


@dataclass(frozen=True, slots=True)
class Manifest:
    """Parsed ``manifest.json`` of one on-disk store directory."""

    version: int
    num_nodes: int
    num_edges: int
    offset_width: int
    column_width: int
    gap_encoded: bool
    segment_bytes: int
    offsets: tuple[Segment, ...]
    columns: tuple[Segment, ...]
    ordering: str = "natural"
    perm: Segment | None = None

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise to the on-disk JSON document."""
        doc = {
            "format": "repro-disk-store",
            "version": self.version,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "offset_width": self.offset_width,
            "column_width": self.column_width,
            "gap_encoded": self.gap_encoded,
            "segment_bytes": self.segment_bytes,
            "ordering": self.ordering,
            "perm": asdict(self.perm) if self.perm is not None else None,
            "segments": {
                "offsets": [asdict(s) for s in self.offsets],
                "columns": [asdict(s) for s in self.columns],
            },
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str, *, source: str = "<manifest>") -> "Manifest":
        """Parse a manifest document; :class:`DiskFormatError` on any defect."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DiskFormatError(f"{source}: manifest is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != "repro-disk-store":
            raise DiskFormatError(f"{source}: not a repro disk-store manifest")
        version = doc.get("version")
        if version not in SUPPORTED_VERSIONS:
            supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
            raise DiskFormatError(
                f"{source}: unsupported format version {version!r} "
                f"(this build reads versions {supported})"
            )
        try:
            segments = doc["segments"]
            perm_doc = doc.get("perm")
            return cls(
                version=int(version),
                num_nodes=int(doc["num_nodes"]),
                num_edges=int(doc["num_edges"]),
                offset_width=int(doc["offset_width"]),
                column_width=int(doc["column_width"]),
                gap_encoded=bool(doc["gap_encoded"]),
                segment_bytes=int(doc["segment_bytes"]),
                offsets=tuple(Segment(**s) for s in segments["offsets"]),
                columns=tuple(Segment(**s) for s in segments["columns"]),
                ordering=str(doc.get("ordering", "natural")),
                perm=Segment(**perm_doc) if perm_doc is not None else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DiskFormatError(f"{source}: malformed manifest: {exc}") from None

    # ------------------------------------------------------------------
    def save(self, directory) -> Path:
        """Write ``manifest.json`` into *directory*; returns its path."""
        path = Path(directory) / MANIFEST_NAME
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, directory) -> "Manifest":
        """Read and parse *directory*'s ``manifest.json``."""
        path = Path(directory) / MANIFEST_NAME
        if not path.is_file():
            raise DiskFormatError(
                f"{directory}: not a disk store (missing {MANIFEST_NAME})"
            )
        return cls.from_json(path.read_text(encoding="utf-8"), source=str(path))

    def verify(self, directory) -> None:
        """Check every segment file's existence, size, and CRC-32.

        Streams each file once in bounded chunks — the check never
        materialises a whole column in memory — and raises
        :class:`DiskFormatError` naming the first offending file.
        """
        directory = Path(directory)
        extra = (self.perm,) if self.perm is not None else ()
        for seg in (*self.offsets, *self.columns, *extra):
            path = directory / seg.filename
            if not path.is_file():
                raise DiskFormatError(f"{path}: segment file missing")
            size = path.stat().st_size
            if size != seg.nbytes:
                raise DiskFormatError(
                    f"{path}: segment is {size} bytes, manifest says {seg.nbytes}"
                )
            crc = file_crc32(path)
            if crc != seg.crc32:
                raise DiskFormatError(
                    f"{path}: checksum mismatch "
                    f"(file {crc:#010x}, manifest {seg.crc32:#010x})"
                )


def file_crc32(path, *, chunk_bytes: int = 1 << 20) -> int:
    """CRC-32 of a file, streamed in *chunk_bytes* reads."""
    crc = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk_bytes)
            if not block:
                return crc
            crc = zlib.crc32(block, crc)


def plan_field_segments(
    num_fields: int, width: int, segment_bytes: int
) -> list[tuple[int, int]]:
    """Cut a uniform field stream into ``(first_field, end_field)`` runs.

    Each run packs into at most ``segment_bytes`` (at least one field
    per run).  Used for the offset column, whose fields are all the
    same size and carry no row structure.
    """
    per_seg = max(1, (int(segment_bytes) * 8) // int(width))
    return [
        (lo, min(lo + per_seg, num_fields))
        for lo in range(0, num_fields, per_seg)
    ]
