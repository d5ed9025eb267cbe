"""Builders for the on-disk store: re-layout and out-of-core construction.

Three entry points:

* :func:`write_disk_store` — persist an in-memory
  :class:`~repro.csr.BitPackedCSR` as a store directory (segment
  re-pack, checksums, manifest).
* :func:`pack_disk_store` — edge arrays → optional vertex reordering →
  packed CSR → :func:`write_disk_store`: the one place ordering,
  codecs and the directory are composed (the ``disk`` store kind and
  the CLI's ``build`` / ``compact --format disk`` both call it).
* :func:`build_disk_store` — construct the directory **out of core**
  from a binary edge-list file (:func:`~repro.csr.io.write_edge_list_binary`
  format), streaming the edges in bounded chunks so peak working memory
  is O(chunk + segment + n) regardless of edge count.  The offset array
  still comes from the paper's chunked prefix sum (Algorithm 1) over
  the streamed degree counts, and the resulting packed bits are
  **bit-identical** to packing the same graph in memory.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..bitpack.delta import row_gaps
from ..bitpack.fixed import pack_fixed, unpack_slice
from ..bitpack.segcodec import (
    SegmentEncoding,
    encode_row_segments,
    resolve_codecs,
    row_segments,
)
from ..csr.io import binary_edge_list_info, iter_edge_list_binary
from ..errors import DiskFormatError, ValidationError
from ..parallel.machine import Executor, SerialExecutor
from ..parallel.scan import exclusive_from_inclusive, prefix_sum_parallel
from ..parallel.sort import sort_within_rows
from ..utils import bits_for_count, bits_for_value, min_uint_dtype
from .format import (
    DEFAULT_SEGMENT_BYTES,
    FORMAT_VERSION,
    MANIFEST_NAME,
    Manifest,
    Segment,
    plan_field_segments,
)
from .store import DiskStore

__all__ = ["write_disk_store", "pack_disk_store", "build_disk_store"]

_TMP_COLUMNS = "columns.tmp"


def _prepare_directory(path) -> Path:
    """Create (or clear) a store directory; refuse foreign content.

    An existing directory is reused when it already *is* a disk store
    (has a manifest), or when every entry is a builder-owned name
    (segment files, the build temporary): a build that died before its
    manifest was written.  The builder-owned names are removed first.
    A directory with no manifest that holds anything else is refused so
    a typo'd path cannot clobber user data.
    """
    directory = Path(path)
    if directory.exists() and not directory.is_dir():
        raise DiskFormatError(f"{directory}: not a directory")
    directory.mkdir(parents=True, exist_ok=True)
    entries = sorted(p.name for p in directory.iterdir())
    owned = [
        name for name in entries
        if name in (MANIFEST_NAME, _TMP_COLUMNS) or name.endswith(".seg")
    ]
    if MANIFEST_NAME not in entries and len(owned) < len(entries):
        raise DiskFormatError(
            f"{directory}: directory holds no {MANIFEST_NAME} and files that are "
            "not a disk store's; refusing to overwrite"
        )
    for name in owned:
        (directory / name).unlink()
    return directory


def _write_chunks(path: Path, chunks) -> tuple[int, int]:
    """Stream *chunks* (bit arrays of whole bytes) into the file *path*;
    returns ``(nbytes, crc32)`` of what was written."""
    crc = 0
    nbytes = 0
    with open(path, "wb") as fh:
        for bits in chunks:
            payload = bits.buffer[: bits.nbytes].tobytes()
            fh.write(payload)
            crc = zlib.crc32(payload, crc)
            nbytes += len(payload)
    return nbytes, crc


# Packed bits emitted per pack_fixed slice while writing a segment, so
# the file is written and checksummed as a stream and the builder's
# transient heap does not grow with the segment size.  Any run of
# values whose count is a multiple of eight packs to whole bytes, so
# the slices concatenate bit-identically to one monolithic pack.
_PACK_STREAM_BITS = 1 << 17


def _write_packed(
    directory: Path,
    filename: str,
    values: np.ndarray,
    width: int,
    *,
    first_field: int,
    first_row: int,
    num_rows: int,
) -> Segment:
    """Pack *values* from bit 0, write the file, return its table entry."""
    step = max(8, (_PACK_STREAM_BITS // width) & ~7)
    nbytes, crc = _write_chunks(
        directory / filename,
        (pack_fixed(values[lo : lo + step], width)
         for lo in range(0, values.shape[0], step)),
    )
    return Segment(
        filename=filename,
        first_field=int(first_field),
        num_fields=int(values.shape[0]),
        first_row=int(first_row),
        num_rows=int(num_rows),
        nbytes=nbytes,
        crc32=crc,
    )


def _write_encoded(directory: Path, filename: str, enc: SegmentEncoding) -> Segment:
    """Write one adaptively encoded segment: [starts table][payload].

    The row-starts table (when the codec needs one) occupies the file's
    first ``starts_nbytes`` bytes so the store can map both regions
    from a single file handle.
    """
    nbytes, crc = _write_chunks(
        directory / filename,
        [bits for bits in (enc.starts, enc.payload) if bits is not None],
    )
    return Segment(
        filename=filename,
        first_field=int(enc.first_field),
        num_fields=int(enc.num_fields),
        first_row=int(enc.first_row),
        num_rows=int(enc.num_rows),
        nbytes=nbytes,
        crc32=crc,
        codec=enc.codec,
        enc_width=int(enc.enc_width),
        starts_width=int(enc.starts_width),
        starts_nbytes=int(enc.starts_nbytes),
    )


def _write_perm_segment(directory: Path, perm, num_nodes: int) -> Segment:
    """Pack and write the node permutation as its own segment file."""
    from ..reorder.orderings import check_permutation

    arr = check_permutation(perm, num_nodes)
    width = bits_for_count(num_nodes)
    seg = _write_packed(
        directory,
        "perm.seg",
        arr.astype(np.uint64),
        width,
        first_field=0,
        first_row=0,
        num_rows=num_nodes,
    )
    return replace(seg, enc_width=width)


def _write_offset_segments(
    directory: Path, indptr: np.ndarray, offset_width: int, segment_bytes: int
) -> list[Segment]:
    """Segment and write the packed ``iA`` column."""
    return [
        _write_packed(
            directory,
            f"offsets-{i:05d}.seg",
            indptr[lo:hi].astype(np.uint64),
            offset_width,
            first_field=lo,
            first_row=lo,
            num_rows=hi - lo,
        )
        for i, (lo, hi) in enumerate(
            plan_field_segments(indptr.shape[0], offset_width, segment_bytes)
        )
    ]


def _write_columns(
    directory: Path,
    indptr: np.ndarray,
    fields_of,
    width: int,
    segment_bytes: int,
    candidates,
    gap_transform: bool = False,
) -> list[Segment]:
    """Segment and write the ``jA`` column from a ``fields_of`` source
    (see :func:`~repro.bitpack.segcodec.row_segments`).

    With *candidates* each segment is gap-transformed and stored under
    the smallest of them; without, its fields are packed at *width* as
    they come (after the row-gap transform when *gap_transform*).  An
    all-empty row run writes no file but keeps its number.
    """
    name = "columns-{:05d}.seg".format
    if candidates is not None:
        return [
            _write_encoded(directory, name(i), enc)
            for i, enc in encode_row_segments(
                indptr, fields_of, width, segment_bytes, candidates
            )
        ]
    return [
        _write_packed(
            directory,
            name(i),
            row_gaps(local_indptr, values) if gap_transform else values,
            width,
            first_field=f0,
            first_row=r0,
            num_rows=local_indptr.shape[0] - 1,
        )
        for i, r0, f0, local_indptr, values in row_segments(
            indptr, fields_of, width, segment_bytes
        )
    ]


def _write_manifest(
    directory: Path, n, m, offset_width, column_width, gap_encoded,
    segment_bytes, offsets, columns, ordering="natural", perm=None,
) -> DiskStore:
    """Write the manifest — last, so a crashed build never looks like a
    valid store — and open the finished directory."""
    manifest = Manifest(
        version=FORMAT_VERSION,
        num_nodes=n,
        num_edges=m,
        offset_width=offset_width,
        column_width=column_width,
        gap_encoded=gap_encoded,
        segment_bytes=int(segment_bytes),
        offsets=tuple(offsets),
        columns=tuple(columns),
        ordering=ordering,
        perm=perm,
    )
    manifest.save(directory)
    return DiskStore(directory, manifest)


def write_disk_store(
    packed,
    path,
    *,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    codecs=None,
    ordering: str = "natural",
    perm=None,
) -> DiskStore:
    """Persist a :class:`~repro.csr.BitPackedCSR` as a disk-store directory.

    Each segment re-packs its run of fields from bit 0 (decoded values
    are identical, so queries against the directory are bit-exact with
    the in-memory store); column segments are cut at row boundaries so
    no row straddles files.  The manifest — with per-file CRC-32s — is
    written last, so a crashed build never looks like a valid store.
    Returns the opened :class:`DiskStore`.  Weighted graphs are not
    supported on disk yet.

    With *codecs* (a candidate spec for
    :func:`~repro.bitpack.segcodec.resolve_codecs`) each column segment
    is gap-transformed and stored under whichever candidate measures
    smallest, tagged in the format-v2 manifest.  *ordering*/*perm*
    record the vertex reordering the edges were relabeled under; the
    permutation is written as its own ``perm.seg`` so
    :func:`~repro.disk.open_disk_store` can restore original-id
    queries.
    """
    if getattr(packed, "values", None) is not None:
        raise ValidationError("weighted graphs are not supported by the disk store")
    if segment_bytes <= 0:
        raise ValidationError("segment_bytes must be positive")
    candidates = resolve_codecs(codecs) if codecs is not None else None
    directory = _prepare_directory(path)
    n, m = packed.num_nodes, packed.num_edges
    indptr = packed._indptr()

    offset_segments = _write_offset_segments(
        directory, indptr, packed.offset_width, segment_bytes
    )
    if candidates is None:
        column_width, gap_encoded = packed.column_width, packed.gap_encoded

        def fields_of(f0, f1, _):
            return unpack_slice(packed.columns, column_width, f0, f1 - f0)
    else:
        # adaptive path: decode once, gap-transform and measure per segment
        indices = packed.to_csr().indices
        column_width, gap_encoded = bits_for_count(n), True

        def fields_of(f0, f1, _):
            return indices[f0:f1]
    column_segments = _write_columns(
        directory, indptr, fields_of, column_width, segment_bytes, candidates
    )

    return _write_manifest(
        directory, n, m, packed.offset_width, column_width, gap_encoded,
        segment_bytes, offset_segments, column_segments, str(ordering),
        _write_perm_segment(directory, perm, n) if perm is not None else None,
    )


def pack_disk_store(
    sources,
    destinations,
    n: int,
    path,
    *,
    order: str = "natural",
    codecs=None,
    segment_bytes: int | None = None,
    executor: Executor | None = None,
    **pack_opts,
) -> DiskStore:
    """Edge arrays → store directory, relabeled under *order* first.

    With an *order* other than ``natural`` the edges are relabeled by
    that ordering's permutation (and so re-sorted, charged to
    *executor*) before packing; *order*, the permutation and *codecs*
    are then :func:`write_disk_store`'s parameters of the same meaning,
    and *pack_opts* (``sort``, ``gap_encode``) go to
    :func:`~repro.csr.packed.build_bitpacked_csr`.  Like
    :func:`write_disk_store` this returns the raw :class:`DiskStore`,
    which answers in *relabeled* ids — :meth:`DiskStore.in_original_ids`
    (or reopening through :func:`~repro.disk.open_disk_store`)
    translates.
    """
    from ..csr.packed import build_bitpacked_csr

    perm = None
    if order != "natural":
        from ..reorder.orderings import edge_ordering

        perm = edge_ordering(order, sources, destinations, n)
        sources, destinations = perm[np.asarray(sources)], perm[np.asarray(destinations)]
        pack_opts["sort"] = True
    packed = build_bitpacked_csr(sources, destinations, n, executor, **pack_opts)
    return write_disk_store(
        packed, path, segment_bytes=int(segment_bytes or DEFAULT_SEGMENT_BYTES),
        codecs=codecs, ordering=order, perm=perm,
    )


def build_disk_store(
    edge_path,
    path,
    *,
    num_nodes: int | None = None,
    gap_encode: bool = False,
    codecs=None,
    chunk_edges: int = 1 << 20,
    segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    executor: Executor | None = None,
) -> DiskStore:
    """Out-of-core build: binary edge-list file → disk-store directory.

    The edge file may be in any order and the graph never materialises
    in memory.  Streaming passes (``chunk_edges`` edges at a time)
    compute the node count (when *num_nodes* is omitted) and the degree
    array; the offsets come from the paper's chunked parallel prefix sum
    (Algorithm 1) on *executor*; a chunked scatter pass places
    destinations into an uncompressed temporary memmap via per-node
    write cursors; finally each column segment is loaded, its rows
    sorted (:func:`~repro.parallel.sort.sort_within_rows` — every
    store's rows are sorted), optionally gap-transformed, packed, and
    written.  Peak working memory is O(chunk + segment + n); every file
    and CRC equals the in-memory pipeline's (``ensure_sorted`` →
    :func:`~repro.csr.build_bitpacked_csr` → :func:`write_disk_store`).
    Returns the opened :class:`DiskStore`.

    With *codecs* each column segment is gap-transformed and stored
    under the smallest measured candidate (format v2) — still fully out
    of core, since codec selection is a per-segment operation.
    """
    executor = executor or SerialExecutor()
    if chunk_edges <= 0:
        raise ValidationError("chunk_edges must be positive")
    if segment_bytes <= 0:
        raise ValidationError("segment_bytes must be positive")
    candidates = resolve_codecs(codecs) if codecs is not None else None
    edge_path = Path(edge_path)
    m, _ = binary_edge_list_info(edge_path)
    directory = _prepare_directory(path)

    # Pass 0 (skipped when the caller knows n): widest id seen.
    if num_nodes is None:
        n = 0
        for src, dst in iter_edge_list_binary(edge_path, chunk_edges=chunk_edges):
            n = max(n, int(src.max()) + 1, int(dst.max()) + 1)
    else:
        n = int(num_nodes)
        if n < 0:
            raise ValidationError("node count must be non-negative")

    # Pass 1 — degrees, chunk by chunk.
    deg = np.zeros(n, dtype=np.int64)
    for src, dst in iter_edge_list_binary(edge_path, chunk_edges=chunk_edges):
        lo = int(min(src.min(), dst.min())) if src.size else 0
        hi = int(max(src.max(), dst.max())) if src.size else -1
        if lo < 0 or hi >= n:
            raise ValidationError(f"edge ids must lie in [0, {n})")
        deg += np.bincount(src, minlength=n)

    # Offsets — Algorithm 1's chunked prefix sum, charged to *executor*.
    indptr = exclusive_from_inclusive(prefix_sum_parallel(deg, executor))
    offset_width = bits_for_value(m)

    # Pass 2 — scatter destinations into an uncompressed temporary
    # memmap through per-node cursors.  Within a chunk a stable sort
    # groups edges by source and the group-rank trick turns the whole
    # chunk's placement into one fancy-indexed write; cursors carry the
    # per-node fill point across chunks, so global edge order per row
    # is exactly file order.
    tmp_path = directory / _TMP_COLUMNS
    tmp_dtype = min_uint_dtype(max(0, n - 1))
    tmp = np.memmap(tmp_path, dtype=tmp_dtype, mode="w+", shape=(max(m, 1),))
    cursors = indptr[:-1].copy()
    for src, dst in iter_edge_list_binary(edge_path, chunk_edges=chunk_edges):
        order = np.argsort(src, kind="stable")
        ssrc = src[order]
        sdst = dst[order]
        uniq, group_start, counts = np.unique(
            ssrc, return_index=True, return_counts=True
        )
        ranks = np.arange(ssrc.shape[0], dtype=np.int64) - np.repeat(
            group_start, counts
        )
        tmp[cursors[ssrc] + ranks] = sdst
        cursors[uniq] += counts

    def stored_fields(f0, f1, local_indptr):
        return np.array(tmp[f0:f1], dtype=np.uint64)

    def sorted_fields(f0, f1, local_indptr):
        return sort_within_rows(local_indptr, stored_fields(f0, f1, local_indptr))

    # Column width.  Gap mode needs the global maximum gap, which only
    # exists after per-row sorting — one extra segment-bounded pass that
    # sorts each row in place (in the temporary) and records the max.
    fields_of = sorted_fields
    if candidates is not None:
        # adaptive mode: widths are per-segment, no global pass needed
        column_width = bits_for_count(n)
    elif gap_encode:
        max_gap = 0
        for _, _, f0, local_indptr, vals in row_segments(
            indptr, sorted_fields, bits_for_count(n), segment_bytes
        ):
            tmp[f0 : f0 + vals.shape[0]] = vals
            max_gap = max(max_gap, int(row_gaps(local_indptr, vals).max()))
        column_width = bits_for_value(max_gap) if m else 1
        fields_of = stored_fields  # rows already sorted in the temporary
    else:
        column_width = bits_for_count(n)

    # Pass 3 — segment, (sort,) transform, pack, write.
    offset_segments = _write_offset_segments(
        directory, indptr, offset_width, segment_bytes
    )
    column_segments = _write_columns(
        directory, indptr, fields_of, column_width, segment_bytes,
        candidates, gap_transform=gap_encode,
    )
    del tmp  # release the mapping before unlinking the file
    tmp_path.unlink()

    return _write_manifest(
        directory, n, m, offset_width, column_width,
        bool(gap_encode) or candidates is not None, segment_bytes,
        offset_segments, column_segments,
    )
