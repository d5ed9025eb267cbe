"""The memory-mapped on-disk graph store with selective row loading.

:class:`DiskStore` satisfies the :class:`~repro.query.stores.GraphStore`
protocol against a store *directory* (see :mod:`repro.disk.format`)
without ever materialising the graph: each packed segment file is
``np.memmap``-ed lazily on first touch, and the decode kernels (each
segment's :mod:`~repro.bitpack.segcodec` table entry) read only the
byte windows of the rows a query asks for — the OS faults in just
those pages.  This is the selective-loading design of systems like
swh-graph and ParaGrapher, applied to the paper's packed CSR.

Cost accounting: the store meters the **distinct mapped pages** each
decode touches and exposes the counter through
:meth:`take_page_touches`; the batched query kernels drain it into the
``page_touches`` channel of the :class:`~repro.parallel.cost.Cost`
model.  Every *other* charge (reads, writes, bit-ops) is produced by
the same kernels as the in-memory :class:`~repro.csr.BitPackedCSR`, so
simulated query costs differ from the in-memory store by exactly the
explicit page term — zero it in the :class:`~repro.parallel.CostModel`
and the clocks agree bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..bitpack.bitarray import BitArray
from ..bitpack.delta import rows_from_gaps
from ..bitpack.fixed import read_fields, unpack_fixed
from ..bitpack.segcodec import row_windows, segment_codec
from ..errors import QueryError
from ..query.stores import BaseStore
from ..utils import human_bytes
from .format import MANIFEST_NAME, PAGE_BYTES, Manifest

__all__ = ["DiskStore"]

# Page ids are namespaced per segment file: (file id << _FILE_SHIFT) | page.
# 2^40 pages of 4 KiB each is 4 PiB per segment file — unreachable.
_FILE_SHIFT = 40


def _union_length(lo: np.ndarray, hi: np.ndarray) -> int:
    """Total integers covered by the union of inclusive ranges [lo, hi]."""
    if lo.size == 0:
        return 0
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = hi[order]
    cummax = np.maximum.accumulate(hi)
    prev = np.concatenate(([np.int64(-1)], cummax[:-1]))
    contrib = hi - np.maximum(lo, prev + 1) + 1
    return int(np.maximum(contrib, 0).sum())


class DiskStore(BaseStore):
    """A packed CSR served straight from memory-mapped segment files.

    Open one with :meth:`open`; build one with
    :func:`~repro.disk.build.write_disk_store` (from an in-memory
    store) or :func:`~repro.disk.build.build_disk_store` (out-of-core
    from a binary edge list).  Weighted graphs are not supported on
    disk yet.

    Only the manifest and the segment lookup tables live in RAM; the
    packed payload stays on disk until a query touches it, so the
    store opens in O(metadata) and serves graphs larger than memory.
    """

    __slots__ = (
        "path",
        "manifest",
        "num_nodes",
        "num_edges",
        "offset_width",
        "column_width",
        "gap_encoded",
        "ordering",
        "_off_first",
        "_col_first_row",
        "_col_first_field",
        "_off_maps",
        "_col_maps",
        "_page_lo",
        "_page_hi",
        "_page_touches",
        "_tmpdir",
    )

    def __init__(self, path, manifest: Manifest, *, _tmpdir=None):
        self.path = Path(path)
        self.manifest = manifest
        self.num_nodes = int(manifest.num_nodes)
        self.num_edges = int(manifest.num_edges)
        self.offset_width = int(manifest.offset_width)
        self.column_width = int(manifest.column_width)
        self.gap_encoded = bool(manifest.gap_encoded)
        self.ordering = str(manifest.ordering)
        self._off_first = np.asarray(
            [s.first_field for s in manifest.offsets], dtype=np.int64
        )
        self._col_first_row = np.asarray(
            [s.first_row for s in manifest.columns], dtype=np.int64
        )
        self._col_first_field = np.asarray(
            [s.first_field for s in manifest.columns], dtype=np.int64
        )
        self._off_maps: list[BitArray | None] = [None] * len(manifest.offsets)
        # per column segment: (payload BitArray, starts BitArray | None)
        self._col_maps: list[tuple | None] = [None] * len(manifest.columns)
        self._page_lo: list[np.ndarray] = []
        self._page_hi: list[np.ndarray] = []
        self._page_touches = 0
        # keeps a registry-created TemporaryDirectory alive for the
        # store's lifetime (None for user-owned directories)
        self._tmpdir = _tmpdir

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path, *, verify: bool = True) -> "DiskStore":
        """Open a store directory written by the disk builders.

        ``verify=True`` (the default) streams every segment file once
        to check its size and CRC-32 against the manifest — bounded
        memory, one sequential read — and raises
        :class:`~repro.errors.DiskFormatError` on the first mismatch.
        Pass ``verify=False`` to skip the scan when the directory is
        trusted (e.g. it was written moments ago by the same process).
        """
        manifest = Manifest.load(path)
        if verify:
            manifest.verify(path)
        return cls(path, manifest)

    # -- lazy segment mapping -------------------------------------------
    def _offset_bits(self, s: int) -> BitArray:
        ba = self._off_maps[s]
        if ba is None:
            seg = self.manifest.offsets[s]
            mm = np.memmap(self.path / seg.filename, dtype=np.uint8, mode="r")
            ba = BitArray(mm, seg.num_fields * self.offset_width)
            self._off_maps[s] = ba
        return ba

    def _column_parts(self, s: int) -> tuple:
        """Map column segment *s*: its codec's table entry and the
        ``(payload, starts-or-None)`` bit arrays.

        A self-indexing segment is one contiguous packed field stream.
        A codec with a row-starts table (format v2) stores it packed in
        the file's first ``starts_nbytes`` bytes and the variable-length
        payload after it; both views share one mapping.
        """
        cached = self._col_maps[s]
        if cached is None:
            seg = self.manifest.columns[s]
            codec = segment_codec(seg.codec)
            mm = np.memmap(self.path / seg.filename, dtype=np.uint8, mode="r")
            if codec.starts_unit:
                starts = BitArray(
                    mm[: seg.starts_nbytes], (seg.num_rows + 1) * seg.starts_width
                )
                payload = BitArray(
                    mm[seg.starts_nbytes :], (seg.nbytes - seg.starts_nbytes) * 8
                )
            else:
                width = seg.enc_width or self.column_width
                payload, starts = BitArray(mm, seg.num_fields * width), None
            cached = self._col_maps[s] = (codec, payload, starts)
        return cached

    def mapped_segments(self) -> int:
        """Segment files currently memory-mapped (observability)."""
        return sum(m is not None for m in (*self._off_maps, *self._col_maps))

    def close(self) -> None:
        """Drop every live mapping (they reopen lazily on next use)."""
        self._off_maps = [None] * len(self.manifest.offsets)
        self._col_maps = [None] * len(self.manifest.columns)

    def __enter__(self) -> "DiskStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- page-touch metering --------------------------------------------
    def _record_bit_windows(
        self, file_id: int, bit_lo: np.ndarray, bit_hi: np.ndarray
    ) -> None:
        """Note page windows covering inclusive in-file bit ranges."""
        active = bit_hi >= bit_lo
        if not np.any(active):
            return
        base = np.int64(file_id) << _FILE_SHIFT
        self._page_lo.append(base + (bit_lo[active] >> 3) // PAGE_BYTES)
        self._page_hi.append(base + (bit_hi[active] >> 3) // PAGE_BYTES)

    def _record_pages(
        self, file_id: int, starts: np.ndarray, counts: np.ndarray, width: int
    ) -> None:
        """Note the page windows of field runs [starts, starts+counts)."""
        self._record_bit_windows(
            file_id, starts * width, (starts + counts) * width - 1
        )

    def _flush_pages(self) -> None:
        """Fold recorded windows into the counter as *distinct* pages."""
        if not self._page_lo:
            return
        lo = np.concatenate(self._page_lo)
        hi = np.concatenate(self._page_hi)
        self._page_lo = []
        self._page_hi = []
        self._page_touches += _union_length(lo, hi)

    def take_page_touches(self) -> int:
        """Distinct mapped pages touched since the last drain (resets)."""
        touched = self._page_touches
        self._page_touches = 0
        return touched

    # -- offset (iA) decoding -------------------------------------------
    def _read_offset_fields(self, fields: np.ndarray) -> np.ndarray:
        """Decode arbitrary ``iA`` field indices (``uint64``), metered."""
        out = np.empty(fields.shape[0], dtype=np.uint64)
        seg = np.searchsorted(self._off_first, fields, side="right") - 1
        for s in np.unique(seg):
            pos = np.flatnonzero(seg == s)
            local = fields[pos] - self._off_first[s]
            out[pos] = read_fields(self._offset_bits(int(s)), self.offset_width, local)
            self._record_pages(
                int(s), local, np.ones(local.shape[0], dtype=np.int64),
                self.offset_width,
            )
        return out

    def offset(self, u: int) -> int:
        """Decoded ``iA[u]`` (valid for ``0 <= u <= n``)."""
        if not (0 <= u <= self.num_nodes):
            raise QueryError(f"offset index {u} out of range [0, {self.num_nodes}]")
        value = int(self._read_offset_fields(np.asarray([u], dtype=np.int64))[0])
        self._flush_pages()
        return value

    def degree(self, u: int) -> int:
        """Out-degree of *u* (two offset fields, no row decode)."""
        self._check_node(u)
        pair = self._read_offset_fields(np.asarray([u, u + 1], dtype=np.int64))
        self._flush_pages()
        return int(pair[1]) - int(pair[0])

    def _all_offsets(self) -> np.ndarray:
        """The whole ``iA`` column (``uint64``, ``n + 1`` entries), metered."""
        parts = []
        for s, seg in enumerate(self.manifest.offsets):
            parts.append(
                unpack_fixed(self._offset_bits(s), seg.num_fields, self.offset_width)
            )
            self._record_pages(
                s,
                np.asarray([0], dtype=np.int64),
                np.asarray([seg.num_fields], dtype=np.int64),
                self.offset_width,
            )
        self._flush_pages()
        return np.concatenate(parts) if parts else np.zeros(1, dtype=np.uint64)

    def degrees(self) -> np.ndarray:
        """Degree of every node as an ``int64`` array (full offset scan)."""
        return np.diff(self._all_offsets()).astype(np.int64)

    # -- row (jA) decoding ----------------------------------------------
    @property
    def row_dtype(self) -> np.dtype:
        """Dtype of decoded neighbour rows."""
        return np.dtype(np.uint64)

    def _decode_rows(self, uniq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of *uniq*, selectively loaded.

        Offset pairs are gathered from the mapped ``iA`` segments and
        the rows decoded segment-locally with the vectorised gather
        kernels (each row lives in exactly one segment file by
        construction).  Only the byte windows of the touched rows are
        read, so a batch faults in a bounded set of pages no matter how
        large the graph is.  Values and dtype are bit-exact with
        :class:`~repro.csr.BitPackedCSR`.
        """
        fields = np.unique(np.concatenate([uniq, uniq + 1]))
        vals = self._read_offset_fields(fields).astype(np.int64)
        starts = vals[np.searchsorted(fields, uniq)]
        degrees = vals[np.searchsorted(fields, uniq + 1)] - starts

        # segments are visited in ascending order and hold ascending row
        # ranges, so the decoded chunks concatenate in *uniq* order
        chunks: list[np.ndarray] = []
        seg = np.searchsorted(self._col_first_row, uniq, side="right") - 1
        seg = np.where(degrees > 0, seg, np.int64(-1))
        for s in np.unique(seg):
            if s < 0:
                continue  # empty rows decode nothing
            spec = self.manifest.columns[int(s)]
            pos = np.flatnonzero(seg == s)
            counts = degrees[pos]
            file_id = len(self.manifest.offsets) + int(s)
            codec, payload, seg_starts = self._column_parts(int(s))
            # the rows' payload windows, in the codec's unit: read once,
            # they serve both the decode and the metering of its pages
            if codec.starts_unit:
                rows = uniq[pos] - spec.first_row
                lo, hi = row_windows(seg_starts, spec.starts_width, rows)
                self._record_pages(
                    file_id, rows, np.full(rows.shape[0], 2, np.int64),
                    spec.starts_width,
                )
                pay_base = spec.starts_nbytes * 8
                self._record_bit_windows(
                    file_id,
                    pay_base + lo * codec.starts_unit,
                    pay_base + hi * codec.starts_unit - 1,
                )
                width, undo_gaps = spec.enc_width, True
            else:
                # a v1 segment carries no width of its own: the manifest's
                # column width, gap-encoded or not as the manifest says
                width = spec.enc_width or self.column_width
                lo = (starts[pos] - self._col_first_field[s]) * width
                hi = lo + counts * width
                self._record_bit_windows(file_id, lo, hi - 1)
                undo_gaps = self.gap_encoded or spec.enc_width
            flat_s = codec.decode(payload, lo, hi, counts, width)
            if undo_gaps:
                local_offs = np.zeros(pos.shape[0] + 1, dtype=np.int64)
                np.cumsum(counts, out=local_offs[1:])
                flat_s = rows_from_gaps(local_offs, flat_s)
            chunks.append(flat_s)
        self._flush_pages()
        src_flat = (
            chunks[0] if len(chunks) == 1 else
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint64)
        )
        offs_u = np.zeros(uniq.shape[0] + 1, dtype=np.int64)
        np.cumsum(degrees, out=offs_u[1:])
        return src_flat, offs_u

    # -- accounting ------------------------------------------------------
    def memory_bytes(self) -> int:
        """Resident bytes: lookup tables plus currently mapped segments.

        The unmapped payload lives on disk only (see
        :meth:`disk_bytes`), which is the point of the store.
        """
        mapped = sum(
            seg.nbytes
            for seg, ba in zip(
                (*self.manifest.offsets, *self.manifest.columns),
                (*self._off_maps, *self._col_maps),
            )
            if ba is not None
        )
        tables = (
            self._off_first.nbytes
            + self._col_first_row.nbytes
            + self._col_first_field.nbytes
        )
        return int(mapped + tables + len(MANIFEST_NAME))

    def disk_bytes(self) -> int:
        """Total payload bytes across every segment file."""
        return int(
            sum(s.nbytes for s in (*self.manifest.offsets, *self.manifest.columns))
        )

    def bits_per_edge(self) -> float:
        """Compressed bits spent per stored edge (on-disk payload).

        The optional permutation segment is excluded by the usual
        ``.map``-file convention — it is id metadata, not edge payload.
        """
        if self.num_edges == 0:
            return 0.0
        return 8.0 * self.disk_bytes() / self.num_edges

    def codec_breakdown(self) -> dict:
        """Per-codec aggregate over column segments: count, edges, bits."""
        out: dict = {}
        for seg in self.manifest.columns:
            entry = out.setdefault(seg.codec, {"segments": 0, "edges": 0, "bits": 0})
            entry["segments"] += 1
            entry["edges"] += seg.num_fields
            entry["bits"] += seg.nbytes * 8
        return out

    def load_perm(self) -> np.ndarray | None:
        """The stored node permutation, or ``None`` for natural order."""
        seg = self.manifest.perm
        if seg is None:
            return None
        mm = np.memmap(self.path / seg.filename, dtype=np.uint8, mode="r")
        bits = BitArray(mm, seg.num_fields * seg.enc_width)
        return unpack_fixed(bits, seg.num_fields, seg.enc_width).astype(np.int64)

    def in_original_ids(self):
        """This store, behind a :class:`~repro.reorder.ReorderedStore`
        when the manifest records a vertex permutation — queries then
        speak the *original* id space while the packed bits stay in the
        compact relabeled layout."""
        if self.manifest.perm is None:
            return self
        from ..reorder.store import ReorderedStore

        return ReorderedStore(self, self.load_perm(), ordering=self.ordering)

    # -- escape hatch ----------------------------------------------------
    def to_csr(self):
        """Full decode into an in-memory :class:`~repro.csr.CSRGraph`.

        Convenience for tooling (CLI re-sharding, tests); this is the
        one method that *does* materialise the whole graph.
        """
        from ..csr.graph import CSRGraph

        indptr = self._all_offsets().astype(np.int64)
        flat, _ = self.neighbors_batch(np.arange(self.num_nodes, dtype=np.int64))
        return CSRGraph(indptr, flat.astype(np.int64), None, validate=False)

    def __repr__(self) -> str:
        return (
            f"DiskStore(n={self.num_nodes}, m={self.num_edges}, "
            f"iA@{self.offset_width}b, jA@{self.column_width}b, "
            f"gap={self.gap_encoded}, "
            f"segments={len(self.manifest.offsets)}+{len(self.manifest.columns)}, "
            f"disk={human_bytes(self.disk_bytes())}, "
            f"resident={human_bytes(self.memory_bytes())})"
        )
