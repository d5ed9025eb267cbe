"""The memory-mapped on-disk graph store with selective row loading.

:class:`DiskStore` satisfies the :class:`~repro.query.stores.GraphStore`
protocol against a store *directory* (see :mod:`repro.disk.format`)
without ever materialising the graph.  Each segment file is
``np.memmap``-ed lazily on first touch, and a column file is read in
place as a one-segment :class:`~repro.bitpack.segcodec.SegmentArena` —
the decoder :class:`~repro.csr.compact.CompactStore` reads its column
with — which gives a row's payload window and decodes only that: the OS
faults in just those pages.  This is the selective-loading design of
systems like swh-graph and ParaGrapher, applied to the paper's packed
CSR.

Cost accounting: the store meters the **distinct mapped pages** of the
windows it decodes and exposes the counter through
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
from ..bitpack.segcodec import SegmentArena, SegmentEncoding
from ..errors import NotSortedError, QueryError
from ..parallel.sort import edges_sorted
from ..query.stores import BaseStore
from ..utils import human_bytes
from .format import MANIFEST_NAME, PAGE_BYTES, Manifest

__all__ = ["DiskStore"]

# Page ids are namespaced per segment file: (file id << _FILE_SHIFT) | page.
# 2^40 pages of 4 KiB each is 4 PiB per segment file — unreachable.
_FILE_SHIFT = 40
_PAGE_BITS = 8 * PAGE_BYTES


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
        # per column segment: (arena over its mapped file, undo_gaps)
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
        A directory that stores absolute ids (not ``gap_encoded``) is
        then unpacked one column file at a time, and an unsorted row is one
        :class:`~repro.errors.NotSortedError` line; a gap-coded row is a
        prefix sum of unsigned gaps, sorted by construction.  Pass
        ``verify=False`` to read the manifest only, when the directory
        is trusted (e.g. it was written moments ago by the same process).
        """
        manifest = Manifest.load(path)
        store = cls(path, manifest)
        if verify:
            manifest.verify(path)
            if not store.gap_encoded:
                store._check_row_order()
        return store

    def _check_row_order(self) -> None:
        """Refuse an unsorted row, as ``load_store`` refuses such an
        ``.npz``: each column file of absolute ids is unpacked whole,
        once, and cut into rows at ``iA`` (a file of gaps is sorted by
        construction); leaves nothing mapped and no page metered."""
        from ..stores import _ROW_NOT_SORTED

        degrees = self.degrees()
        for s, seg in enumerate(self.manifest.columns):
            arena, undo_gaps = self._column_parts(s)
            if undo_gaps:
                continue
            lo, hi = seg.first_row, seg.first_row + seg.num_rows
            ids = unpack_fixed(arena.views[0][0], seg.num_fields, int(arena.enc_width[0]))
            if not edges_sorted(np.repeat(np.arange(lo, hi), degrees[lo:hi]), ids):
                raise NotSortedError(f"{self.path}: {_ROW_NOT_SORTED}")
        self.close()
        self.take_page_touches()

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
        """Column segment *s* as ``(arena, undo_gaps)``: its mapped file
        read in place as a one-segment :class:`SegmentArena`, and whether
        its rows are stored as gaps.  The v1 rule lives here alone: a
        self-indexing segment with no ``enc_width`` (v1, and the plain
        layouts) is packed at ``column_width`` and holds gaps exactly
        when the manifest is ``gap_encoded``."""
        cached = self._col_maps[s]
        if cached is None:
            seg = self.manifest.columns[s]
            mm = np.memmap(self.path / seg.filename, dtype=np.uint8, mode="r")
            table = seg.starts_nbytes
            width, undo_gaps = seg.enc_width, True
            if not (width or table):
                width, undo_gaps = self.column_width, self.gap_encoded
            record = SegmentEncoding(
                seg.first_row, seg.num_rows, seg.first_field, seg.num_fields,
                seg.codec, width,
                BitArray(mm[table:], (seg.nbytes - table) * 8 if table
                         else seg.num_fields * width),
                BitArray(mm[:table], (seg.num_rows + 1) * seg.starts_width)
                if table else None,
                seg.starts_width,
            )
            cached = self._col_maps[s] = (SegmentArena([record], mm), undo_gaps)
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
    def _record_bits(self, file_id: int, bit_lo: np.ndarray, bit_hi: np.ndarray) -> None:
        """Note the pages of file *file_id* that the inclusive bit
        ranges ``[bit_lo, bit_hi]`` cover."""
        base = file_id << _FILE_SHIFT
        self._page_lo.append(bit_lo // _PAGE_BITS + base)
        self._page_hi.append(bit_hi // _PAGE_BITS + base)

    def _flush_pages(self) -> None:
        """Fold recorded windows into the counter as *distinct* pages:
        the length of the union of the inclusive ranges ``[lo, hi]``."""
        lo = np.concatenate(self._page_lo)
        hi = np.concatenate(self._page_hi)
        self._page_lo = []
        self._page_hi = []
        order = np.argsort(lo, kind="stable")
        lo, hi = lo[order], hi[order]
        # a range counts only the pages past the furthest one before it
        np.maximum(lo[1:], np.maximum.accumulate(hi)[:-1] + 1, out=lo[1:])
        self._page_touches += int(np.maximum(hi - lo + 1, 0).sum())

    def take_page_touches(self) -> int:
        """Distinct mapped pages touched since the last drain (resets)."""
        touched = self._page_touches
        self._page_touches = 0
        return touched

    # -- offset (iA) decoding -------------------------------------------
    def _read_offset_fields(self, fields: np.ndarray) -> np.ndarray:
        """Decode arbitrary ``iA`` field indices (``uint64``), metered."""
        width = self.offset_width
        seg = np.searchsorted(self._off_first, fields, side="right") - 1
        out = np.empty(fields.shape[0], dtype=np.uint64)
        for s in np.unique(seg).tolist():
            pick = seg == s
            local = fields[pick] - self._off_first[s]
            out[pick] = read_fields(self._offset_bits(s), width, local)
            local *= width
            self._record_bits(s, local, local + (width - 1))
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
            self._record_bits(
                s,
                np.asarray([0], dtype=np.int64),
                np.asarray([seg.num_fields * self.offset_width - 1], dtype=np.int64),
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
        """The rows of *uniq*, selectively loaded: values and dtype
        bit-exact with :class:`~repro.csr.BitPackedCSR`.

        One metered gather reads ``iA`` at ``uniq`` and ``uniq + 1`` (a
        page both share counts once in the union).  The non-empty rows
        are walked file by file (a row lives in exactly one); each file's
        arena gives their payload windows, which are metered, then
        decodes them, and a gap-coded run is prefix-summed.  A batch
        faults in only the pages of those windows.
        """
        k = uniq.shape[0]
        ends = self._read_offset_fields(np.concatenate([uniq, uniq + 1]))
        ends = ends.astype(np.int64)
        degrees = ends[k:] - ends[:k]
        offs = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(degrees, out=offs[1:])
        live = degrees.nonzero()[0]  # empty rows own no bytes in any file
        keys, fields, degrees = uniq[live], ends[live], degrees[live]
        seg = np.searchsorted(self._col_first_row, keys, side="right") - 1
        # keys ascend, so each file's rows are one run and the decoded
        # runs concatenate in key order
        change = np.ones(keys.shape[0], dtype=bool)
        np.not_equal(seg[1:], seg[:-1], out=change[1:])
        first = change.nonzero()[0].tolist()
        chunks: list[np.ndarray] = []
        for lo, hi in zip(first, first[1:] + [keys.shape[0]]):
            s = int(seg[lo])
            arena, undo_gaps = self._column_parts(s)
            at = np.zeros(hi - lo, dtype=np.int64)  # the arena's one segment
            rows = keys[lo:hi] - self._col_first_row[s]
            counts = degrees[lo:hi]
            b0, b1 = arena.windows(at, rows, counts, fields[lo:hi] - self._col_first_field[s])
            self._record_bits(len(self._off_maps) + s, *arena.read_bits(at, rows, b0, b1))
            gaps = arena.decode_windows(at, b0, b1, counts)
            if undo_gaps:
                run = np.zeros(hi - lo + 1, dtype=np.int64)
                np.cumsum(counts, out=run[1:])
                gaps = rows_from_gaps(run, gaps)
            chunks.append(gaps)
        self._flush_pages()
        flat = (
            chunks[0] if len(chunks) == 1 else
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint64)
        )
        return flat, offs

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
