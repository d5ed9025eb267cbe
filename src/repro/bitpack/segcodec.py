"""The column segment: codec table, encoder, record and decode dispatch.

This module is the one home of a row-aligned codec segment.  The
builder cuts a CSR's edge column into row-aligned segments
(:func:`plan_row_segments`) and, for every segment, *measures* each
candidate codec on the gap-transformed rows and keeps the smallest —
the per-region adaptivity recommended by the Besta–Hoefler compression
survey (PAPERS.md).  A hub-heavy segment full of tiny gaps compresses
best under a variable-length code; a sparse tail segment with huge
absolute first-neighbour values often stays cheapest at fixed width.

The pipeline, top to bottom:

* **codec table** — one :class:`SegmentCodec` entry per name in
  :data:`SEGMENT_CODECS`.  Adding or removing a codec is one entry
  here; no other module names a codec.
* **generator** — :func:`encode_row_segments` (over
  :func:`row_segments`) is the only loop that plans, gap-transforms
  and encodes segments, from any ``fields_of`` source — a column's
  fields, or (a compaction's splice) its gaps as one LEB128 stream.
* **record** — :class:`SegmentEncoding`: the winner's name, parameters
  and bytes plus the rows / fields it covers (npz keys for
  :class:`~repro.csr.compact.CompactStore`, manifest-v2 fields for the
  disk store).
* **decode** — :class:`SegmentArena`, the one code that turns a row into
  its payload window for the entry's ``decode``: over all of a compact
  store's segments, or over one mapped disk column file.

Three codec families are wired in:

``fixed``
    The existing fixed-width gap packing (paper Algorithm 4) at the
    segment-local maximum gap width.  Self-indexing: row starts follow
    from the CSR offsets, so no side table is needed.

``varint``
    LEB128 byte stream (:mod:`repro.bitpack.varint`) plus a fixed-width
    table of per-row byte offsets — variable length needs explicit row
    starts for random access.

``zeta2`` / ``zeta3`` / ``zeta4``
    Zeta-k bit codes (:mod:`repro.bitpack.zeta`) plus a per-row bit
    offset table.  Best compression on reordered power-law graphs, but
    the decoder runs one pass per neighbour rank, so they are opt-in
    (explicit ``--codec``) rather than part of the ``auto`` candidate
    set, whose members all decode in rank-independent passes.

Codec *selection* cost is build-time only; queries pay just the one
winning decoder per touched segment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from ..errors import CodecError, ValidationError
from ..utils import bits_for_value
from .bitarray import BitArray
from .delta import row_gaps
from .fixed import _decode_at, _gather_runs, pack_fixed, read_fields, unpack_fixed
from .varint import varint_decode, varint_encode, varint_max_bits, varint_nbytes
from .zeta import zeta_decode_rows, zeta_encode, zeta_value_nbits

__all__ = [
    "SEGMENT_CODECS",
    "DEFAULT_CANDIDATES",
    "DEFAULT_SEGMENT_BYTES",
    "SegmentCodec",
    "SegmentEncoding",
    "segment_codec",
    "resolve_codecs",
    "plan_row_segments",
    "row_segments",
    "encode_row_segment",
    "encode_row_segments",
    "row_windows",
    "SegmentArena",
]

#: Target payload bytes per segment (a disk segment file, a compact
#: store's segment).  Small enough that a point query maps a bounded
#: window, large enough that the segment table and per-file syscall
#: overheads stay negligible.
DEFAULT_SEGMENT_BYTES = 1 << 20


@dataclass(frozen=True)
class SegmentCodec:
    """One entry of the codec table: everything the segment layer knows
    about a codec.

    ``starts_unit`` is the payload bits one unit of the row-starts table
    addresses: ``8`` (byte offsets), ``1`` (bit offsets), or ``0`` for a
    self-indexing codec that keeps no table — its rows start at their
    CSR field index times the segment's field width.

    ``measure(gaps)`` is the exact payload size in bits, from the
    per-value code lengths alone.  ``encode(gaps)`` returns
    ``(enc_width, payload, ends)``: the codec parameter stored with the
    segment, the payload, and (table codecs) the ``len(gaps) + 1``
    positions, in ``starts_unit`` units, at which each value starts.
    ``decode(bits, lo, hi, degrees, enc_width)`` returns the gaps of
    rows whose payload windows are ``[lo[i], hi[i])`` of *bits* — in
    ``starts_unit`` units, or bits for a self-indexing codec — with
    ``enc_width`` given per row, concatenated in the order given.
    ``decode_row(bits, lo, hi, degree)``, where a codec has one, is
    ``decode`` of a single window given as scalars: a one-row read is
    all fixed cost, and a codec that can decode a plain slice of the
    payload skips the window plumbing.

    The last two entries take the gaps as their LEB128 stream (what a
    compaction splices from the rows it copies): ``measure_coded(stream,
    count)`` is ``measure`` of the *count* gaps coded in *stream*, from
    its bytes alone, and ``encode_coded(stream)`` is ``(enc_width,
    payload)`` of ``encode`` for the codec whose payload *is* that
    stream — so its row windows are the rows' LEB128 codes, which can be
    copied between segments.
    """

    name: str
    starts_unit: int
    measure: Callable
    encode: Callable
    decode: Callable
    decode_row: Callable | None = None
    measure_coded: Callable | None = None
    encode_coded: Callable | None = None


def _fixed_width(gaps: np.ndarray) -> int:
    return bits_for_value(int(gaps.max()) if gaps.size else 0)


def _fixed_encode(gaps: np.ndarray):
    width = _fixed_width(gaps)
    return width, pack_fixed(gaps, width), None


def _fixed_decode(bits, lo, hi, degrees, width) -> np.ndarray:
    # The kernel follows the widths given, one per row: rows of one width
    # (every row of a mapped file, a compact batch inside one fixed
    # width) take the scalar gather and its strided hub-row regime; a
    # mix of widths gathers per field, which costs 1.5-1.7x on
    # scan-sized batches.
    one = int(width[0])
    if not (width != one).any():
        return _gather_runs(bits, one, lo, degrees)[0]
    first = np.cumsum(degrees)
    first -= degrees
    widths = np.repeat(width, degrees)
    bitpos = np.arange(int(degrees.sum()), dtype=np.int64)
    bitpos *= widths
    bitpos += np.repeat(lo - first * width, degrees)
    return _decode_at(bits, widths.view(np.uint64), bitpos)


def _fixed_decode_row(bits, lo, hi, degree) -> np.ndarray:
    # one self-indexing window: *degree* contiguous fields of one width
    return unpack_fixed(bits, degree, (hi - lo) // degree, bit_offset=lo)


def _varint_encode(gaps: np.ndarray):
    stream = varint_encode(gaps)
    ends = np.zeros(gaps.shape[0] + 1, dtype=np.int64)
    ends[1:] = np.flatnonzero(stream < 0x80)  # each value's last byte
    ends[1:] += 1
    return 0, BitArray(stream, stream.shape[0] * 8), ends


def _varint_decode(bits, lo, hi, degrees, enc_width) -> np.ndarray:
    return varint_decode(
        bits.buffer[: bits.nbytes], int(degrees.sum()), windows=(lo, hi)
    )


def _zeta_encode(k: int, gaps: np.ndarray):
    ends = np.zeros(gaps.shape[0] + 1, dtype=np.int64)
    np.cumsum(zeta_value_nbits(gaps, k), out=ends[1:])
    return k, zeta_encode(gaps, k), ends


def _zeta_decode(k: int, bits, lo, hi, degrees, enc_width) -> np.ndarray:
    return zeta_decode_rows(bits, lo, degrees, k, bit_ends=hi)[0]


def _zeta(k: int) -> SegmentCodec:
    return SegmentCodec(
        f"zeta{k}",
        1,
        lambda gaps: int(zeta_value_nbits(gaps, k).sum()),
        partial(_zeta_encode, k),
        partial(_zeta_decode, k),
    )


_CODECS = {
    codec.name: codec
    for codec in (
        SegmentCodec(
            "fixed", 0, lambda gaps: gaps.shape[0] * _fixed_width(gaps),
            _fixed_encode, _fixed_decode, _fixed_decode_row,
            measure_coded=lambda stream, count: count * varint_max_bits(stream),
        ),
        SegmentCodec(
            "varint", 8, lambda gaps: 8 * int(varint_nbytes(gaps).sum()),
            _varint_encode, _varint_decode,
            lambda bits, lo, hi, degree: varint_decode(bits.buffer[lo:hi], degree),
            measure_coded=lambda stream, count: 8 * stream.shape[0],
            encode_coded=lambda stream: (0, BitArray(stream, stream.shape[0] * 8)),
        ),
        _zeta(2),
        _zeta(3),
        _zeta(4),
    )
}

#: every codec the segment layer can tag and decode
SEGMENT_CODECS = tuple(_CODECS)

#: the ``auto`` candidate set: rank-independent decoders only
DEFAULT_CANDIDATES = ("fixed", "varint")


def segment_codec(name: str) -> SegmentCodec:
    """The table entry of codec *name*; one-line
    :class:`~repro.errors.CodecError` listing the choices otherwise."""
    try:
        return _CODECS[name]
    except KeyError:
        known = ", ".join(SEGMENT_CODECS)
        raise CodecError(f"unknown codec '{name}' (known: {known}, auto)") from None


@dataclass(frozen=True)
class SegmentEncoding:
    """One row-aligned run of the edge column under its winning codec:
    the rows and fields it covers, payload, and row-access metadata.

    ``enc_width`` is codec-specific: the field width for ``fixed``, the
    shard parameter *k* for ``zeta``, and zero for ``varint``.  The
    ``starts`` table (absent for the self-indexing ``fixed``) holds
    ``num_rows + 1`` fixed-width entries — byte offsets for ``varint``,
    bit offsets for ``zeta`` — packed at ``starts_width`` bits each.
    """

    first_row: int
    num_rows: int
    first_field: int
    num_fields: int
    codec: str
    enc_width: int
    payload: BitArray
    starts: BitArray | None = None
    starts_width: int = 0

    @property
    def total_bits(self) -> int:
        """Payload plus row-start-table size — the selection metric."""
        return self.payload.nbits + (self.starts.nbits if self.starts else 0)

    @property
    def starts_nbytes(self) -> int:
        """Bytes the starts table occupies when serialised before the payload."""
        return self.starts.nbytes if self.starts else 0


def resolve_codecs(spec) -> tuple[str, ...]:
    """Normalise a codec request to a tuple of candidate names.

    Accepts ``None`` / ``"auto"`` (the default candidates), a single
    name, a comma-separated string, or a sequence of names.  Unknown
    names raise a one-line :class:`~repro.errors.CodecError` listing
    the registered choices.
    """
    if spec is None:
        return DEFAULT_CANDIDATES
    if isinstance(spec, str):
        if spec.strip().lower() == "auto":
            return DEFAULT_CANDIDATES
        names = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        names = [str(part) for part in spec]
    if not names:
        raise ValidationError("empty codec list")
    return tuple(segment_codec(name).name for name in names)


def _total_bits(codec: SegmentCodec, gaps: np.ndarray, num_rows: int, count=None) -> int:
    """Exact :attr:`SegmentEncoding.total_bits` of *gaps* under *codec* —
    nothing is materialised.  With *count*, *gaps* is the LEB128 stream
    of that many gaps, measured from its bytes."""
    nbits = codec.measure(gaps) if count is None else codec.measure_coded(gaps, count)
    if not codec.starts_unit:
        return nbits
    return nbits + (num_rows + 1) * bits_for_value(nbits // codec.starts_unit)


def encode_row_segment(gaps, local_indptr, candidates=None, *, row_bytes=None) -> SegmentEncoding:
    """Size one segment under every candidate and encode the smallest.

    *gaps* is the segment's gap-transformed column slice and
    *local_indptr* delimits its rows (``num_rows + 1`` entries, zero
    based).  Sizes compare on :attr:`SegmentEncoding.total_bits` — the
    starts table counts against variable-length codecs, so a win must
    pay for its own index.  Ties keep the earlier candidate; only the
    winner is encoded.  The record's extents start at row and field
    zero (:func:`encode_row_segments` places it in its column).

    With *row_bytes*, *gaps* is their LEB128 stream and *row_bytes* the
    byte offset of each row in it (``num_rows + 1`` entries).  When
    every candidate can measure the stream from its bytes, they do, and
    a winner whose payload is the stream keeps it, its row starts being
    *row_bytes*; otherwise the stream is decoded first.
    """
    local_indptr = np.asarray(local_indptr, dtype=np.int64)
    if local_indptr.ndim != 1 or local_indptr.size == 0:
        raise ValidationError("local_indptr must be a non-empty 1-D array")
    count = int(local_indptr[-1])
    codecs = [segment_codec(name) for name in resolve_codecs(candidates)]
    coded = row_bytes is not None
    if coded and not all(c.measure_coded for c in codecs):
        gaps, coded = varint_decode(gaps, count), False
    if coded:
        gaps = np.asarray(gaps, dtype=np.uint8)
        row_bytes = np.asarray(row_bytes, dtype=np.int64)
        if row_bytes.shape != local_indptr.shape or int(row_bytes[-1]) != gaps.shape[0]:
            raise ValidationError("row_bytes must hold num_rows + 1 offsets ending at len(gaps)")
    else:
        gaps = np.asarray(gaps, dtype=np.uint64)
        if count != gaps.shape[0]:
            raise ValidationError("local_indptr must end at len(gaps)")
    rows = local_indptr.shape[0] - 1
    sizes = (
        [_total_bits(c, gaps, rows, count if coded else None) for c in codecs]
        if len(codecs) > 1 else [0]
    )
    codec = codecs[sizes.index(min(sizes))]
    if coded and codec.encode_coded is None:
        gaps, coded = varint_decode(gaps, count), False
    if coded:
        (enc_width, payload), row_ends = codec.encode_coded(gaps), row_bytes
    else:
        enc_width, payload, ends = codec.encode(gaps)
        row_ends = None if ends is None else ends[local_indptr]
    starts, starts_width = None, 0
    if row_ends is not None:
        starts_width = bits_for_value(int(row_ends[-1]))
        starts = pack_fixed(row_ends, starts_width)
    return SegmentEncoding(
        0, rows, 0, count, codec.name, enc_width, payload, starts, starts_width
    )


def plan_row_segments(
    indptr: np.ndarray, width: int, segment_bytes: int
) -> list[tuple[int, int]]:
    """Cut the edge column into ``(first_row, end_row)`` runs.

    Greedy: each segment takes whole rows until its payload at *width*
    bits per field would exceed ``segment_bytes`` — but always at least
    one row, so a single row wider than the target still lands in one
    (oversized) segment and never straddles files.  Runs in one
    ``searchsorted`` per produced segment, not per row.
    """
    iptr = np.asarray(indptr, dtype=np.int64)
    n = iptr.shape[0] - 1
    budget_fields = max(1, (int(segment_bytes) * 8) // int(width))
    plan: list[tuple[int, int]] = []
    row = 0
    while row < n:
        # furthest row end whose cumulative fields fit in the budget
        end = int(np.searchsorted(iptr, iptr[row] + budget_fields, side="right")) - 1
        end = max(row + 1, min(end, n))
        plan.append((row, end))
        row = end
    return plan


def row_segments(indptr, fields_of, width: int, segment_bytes: int):
    """Walk the :func:`plan_row_segments` plan of a column, yielding
    ``(index, first_row, first_field, local_indptr, values)`` per segment.

    *index* is the segment's place in the plan; an all-empty row run
    keeps its index but is not yielded — there is nothing to store.
    ``fields_of(f0, f1, local_indptr)`` supplies the column's fields
    ``[f0, f1)`` (a CSR's ``indices`` slice, or the out-of-core
    builder's temporary memmap, which sorts the rows *local_indptr*
    delimits on the way out).
    """
    iptr = np.asarray(indptr, dtype=np.int64)
    for index, (r0, r1) in enumerate(plan_row_segments(iptr, width, segment_bytes)):
        f0, f1 = int(iptr[r0]), int(iptr[r1])
        if f1 > f0:
            local_indptr = iptr[r0 : r1 + 1] - f0
            yield index, r0, f0, local_indptr, fields_of(f0, f1, local_indptr)


def encode_row_segments(
    indptr, fields_of, width, segment_bytes, candidates=None, *, row_bytes=None
):
    """Plan, gap-transform and encode a column: ``(index, encoding)`` per
    non-empty segment of :func:`row_segments`, each under the smallest
    of *candidates* (:func:`encode_row_segment`) and carrying its
    extents in the column.  With *row_bytes* — the byte offset of every
    row in a LEB128 stream of the column's gaps — ``fields_of`` returns
    a segment's slice of that stream instead of its fields."""
    candidates = resolve_codecs(candidates)
    for index, r0, f0, local_indptr, values in row_segments(
        indptr, fields_of, width, segment_bytes
    ):
        if row_bytes is None:
            values, local = row_gaps(local_indptr, values), None
        else:
            local = row_bytes[r0 : r0 + len(local_indptr)] - row_bytes[r0]
        enc = encode_row_segment(values, local_indptr, candidates, row_bytes=local)
        yield index, replace(enc, first_row=r0, first_field=f0)


def row_windows(
    starts: BitArray, starts_width: int, rows
) -> tuple[np.ndarray, np.ndarray]:
    """Payload windows ``[b0, b1)`` of *rows* from a row-starts table
    (byte offsets for ``varint``, bit offsets for ``zeta``, field
    offsets for a packed CSR offset array), ``int64``.

    One field gather.
    """
    rows = np.asarray(rows, dtype=np.int64)
    ends = read_fields(starts, starts_width, np.concatenate([rows, rows + 1]))
    ends = ends.astype(np.int64)
    return ends[: rows.shape[0]], ends[rows.shape[0] :]


class SegmentArena:
    """The one decoder of a segment row: the starts tables and payloads
    of consecutive row segments in one buffer, so a batch of rows
    decodes in one pass per codec *class* whatever number of segments
    it touches.

    Layout: every starts table, then every payload (byte aligned, in
    segment order, so the varint windows of a scan abut across
    segments).  Without a *buffer* the segments' bytes are copied into
    a new one ending in 8 zero bytes (word-addressable however small);
    a *buffer* already in the layout is read in place — a mapped v2
    column file, ``[starts][payload]``, is the arena of its one segment.
    :attr:`views` holds ``(payload, starts)`` views per segment.
    """

    __slots__ = ("bits", "views", "codec", "enc_width", "starts_bit",
                 "starts_width", "unit", "payload_lo", "payload_hi")

    def __init__(self, segments, buffer=None):
        segments = list(segments)
        nseg = len(segments)
        codecs = [segment_codec(s.codec) for s in segments]
        none = np.zeros(0, dtype=np.uint8)
        parts = [none if s.starts is None else s.starts.buffer for s in segments]
        parts += [s.payload.buffer for s in segments]
        if buffer is None:
            buffer = np.concatenate([*parts, np.zeros(8, dtype=np.uint8)])
        cuts = np.zeros(2 * nseg + 1, dtype=np.int64)
        np.cumsum([p.shape[0] for p in parts], out=cuts[1:])
        self.bits = BitArray(buffer, 8 * int(cuts[-1]))
        buf = self.bits.buffer
        self.starts_bit = 8 * cuts[:nseg]
        self.views = [
            (
                BitArray(buf[cuts[nseg + i] : cuts[nseg + i + 1]], s.payload.nbits),
                None if s.starts is None
                else BitArray(buf[cuts[i] : cuts[i + 1]], s.starts.nbits),
            )
            for i, s in enumerate(segments)
        ]
        table = np.asarray(
            [(SEGMENT_CODECS.index(c.name), s.enc_width, s.starts_width,
              s.payload.nbits, c.starts_unit or 1)
             for s, c in zip(segments, codecs)],
            dtype=np.int64,
        ).reshape(nseg, 5)
        self.codec, self.enc_width, self.starts_width, nbits, self.unit = (
            np.ascontiguousarray(table.T)
        )
        # each payload's extent in the buffer, in the unit its codec's
        # windows come in (payloads are byte aligned: the division is exact)
        self.payload_lo = 8 * cuts[nseg:-1] // self.unit
        self.payload_hi = self.payload_lo + nbits // self.unit

    def decode_gaps(self, seg, rows, degrees, fields) -> np.ndarray:
        """Gaps of the given non-empty rows, concatenated in their order.

        Row *i* is segment ``seg[i]``'s local row ``rows[i]`` of
        ``degrees[i]`` gaps, the first being that segment's local field
        ``fields[i]`` (all ``int64``).
        """
        codecs = self.codec[seg]
        if not (codecs != codecs[0]).any():
            lo, hi = self.windows(seg, rows, degrees, fields)
            return self.decode_windows(seg, lo, hi, degrees)
        gaps = np.empty(int(degrees.sum()), dtype=np.uint64)
        of_gap = np.repeat(codecs, degrees)
        for c in np.unique(codecs).tolist():
            pick = codecs == c
            s, d = seg[pick], degrees[pick]
            gaps[of_gap == c] = self.decode_windows(
                s, *self.windows(s, rows[pick], d, fields[pick]), d
            )
        return gaps

    def windows(self, seg, rows, degrees, fields) -> tuple[np.ndarray, np.ndarray]:
        """Buffer windows ``[lo, hi)`` of non-empty rows of one codec
        class (arguments as in :meth:`decode_gaps`) in that codec's unit:
        two starts-table reads, or ``fields[i]`` fields into a
        self-indexing payload.  :class:`~repro.errors.CodecError` when a
        window runs past its segment's payload."""
        width = self.enc_width[seg]
        if self.starts_width[seg[0]]:  # the rows' windows, from the row-starts table
            starts_width = self.starts_width[seg]
            at = self.starts_bit[seg] + rows * starts_width
            ends = _decode_at(
                self.bits,
                np.concatenate([starts_width, starts_width]).view(np.uint64),
                np.concatenate([at, at + starts_width]),
            ).astype(np.int64)
            lo = ends[: seg.shape[0]]
            hi = ends[seg.shape[0] :]
        else:  # self-indexing: gap j of a row sits j fields after its first
            lo = fields * width
            hi = lo + degrees * width
        base = self.payload_lo[seg]
        hi += base
        if (hi > self.payload_hi[seg]).any():
            raise CodecError("row window runs past its segment's payload")
        lo += base
        return lo, hi

    def decode_windows(self, seg, lo, hi, degrees) -> np.ndarray:
        """The gaps in the :meth:`windows` *lo*, *hi* of rows of segments
        *seg* (one codec class), concatenated in their order."""
        codec = _CODECS[SEGMENT_CODECS[self.codec[seg[0]]]]
        return codec.decode(self.bits, lo, hi, degrees, self.enc_width[seg])

    def read_bits(self, seg, rows, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """The inclusive bit ranges of the buffer that reading the
        :meth:`windows` *lo*, *hi* touches: each row's two starts-table
        entries (a table codec), then each payload window."""
        unit = self.unit[seg]
        first, last = lo * unit, hi * unit - 1
        starts_width = self.starts_width[seg]
        if not starts_width[0]:
            return first, last
        at = self.starts_bit[seg] + rows * starts_width
        return (np.concatenate([at, first]),
                np.concatenate([at + 2 * starts_width - 1, last]))

    def decode_row(self, seg: int, row: int, degree: int, field: int) -> np.ndarray:
        """:meth:`decode_gaps` of one non-empty row, its window read as
        two scalar fields and checked against the same extent."""
        codec = _CODECS[SEGMENT_CODECS[self.codec[seg]]]
        width = int(self.enc_width[seg])
        if codec.starts_unit:
            starts_width = int(self.starts_width[seg])
            at = int(self.starts_bit[seg]) + row * starts_width
            lo = self.bits.read_uint(at, starts_width)
            hi = self.bits.read_uint(at + starts_width, starts_width)
        else:
            lo = field * width
            hi = lo + degree * width
        base = int(self.payload_lo[seg])
        if base + hi > self.payload_hi[seg]:
            raise CodecError("row window runs past its segment's payload")
        if codec.decode_row is not None:
            return codec.decode_row(self.bits, base + lo, base + hi, degree)
        one = (np.asarray([x], dtype=np.int64) for x in (base + lo, base + hi, degree, width))
        return codec.decode(self.bits, *one)
