"""Per-row-range adaptive codec selection — the compact pipeline core.

The builder splits a CSR's gap-transformed column array into row-aligned
segments (:func:`repro.disk.format.plan_row_segments` granularity) and,
for every segment, *measures* each candidate codec and keeps the
smallest — the per-region adaptivity recommended by the Besta–Hoefler
compression survey (PAPERS.md).  A hub-heavy segment full of tiny gaps
compresses best under a variable-length code; a sparse tail segment
with huge absolute first-neighbour values often stays cheapest at fixed
width.  The winner's name and parameters travel with the segment (npz
keys for :class:`~repro.csr.compact.CompactStore`, manifest-v2 fields
for the disk store), and the decode side dispatches back through
:func:`decode_rows` here.

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

from dataclasses import dataclass

import numpy as np

from ..errors import CodecError, ValidationError
from ..utils import bits_for_value
from .bitarray import BitArray
from .delta import rows_from_gaps
from .fixed import _decode_at, pack_fixed, read_fields
from .varint import varint_decode, varint_encode, varint_nbytes
from .zeta import zeta_decode_rows, zeta_encode, zeta_value_nbits

__all__ = [
    "SEGMENT_CODECS",
    "DEFAULT_CANDIDATES",
    "SegmentEncoding",
    "resolve_codecs",
    "encode_row_segment",
    "row_windows",
    "decode_rows",
    "SegmentArena",
]

#: every codec the segment layer can tag and decode
SEGMENT_CODECS = ("fixed", "varint", "zeta2", "zeta3", "zeta4")

#: the ``auto`` candidate set: rank-independent decoders only
DEFAULT_CANDIDATES = ("fixed", "varint")


@dataclass(frozen=True)
class SegmentEncoding:
    """One segment's winning encoding: payload plus row-access metadata.

    ``enc_width`` is codec-specific: the field width for ``fixed``, the
    shard parameter *k* for ``zeta``, and zero for ``varint``.  The
    ``starts`` table (absent for the self-indexing ``fixed``) holds
    ``num_rows + 1`` fixed-width entries — byte offsets for ``varint``,
    bit offsets for ``zeta`` — packed at ``starts_width`` bits each.
    """

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
    for name in names:
        if name not in SEGMENT_CODECS:
            known = ", ".join(SEGMENT_CODECS)
            raise CodecError(f"unknown codec '{name}' (known: {known}, auto)")
    return tuple(names)


def _zeta_k(codec: str) -> int:
    return int(codec[len("zeta"):])


def _encode_one(codec: str, gaps: np.ndarray, local_indptr: np.ndarray) -> SegmentEncoding:
    if codec == "fixed":
        width = bits_for_value(int(gaps.max()) if gaps.size else 0)
        return SegmentEncoding(codec, width, pack_fixed(gaps, width))
    if codec == "varint":
        stream = varint_encode(gaps)
        positions = np.zeros(gaps.shape[0] + 1, dtype=np.int64)
        positions[1:] = np.flatnonzero(stream < 0x80)  # each value's last byte
        positions[1:] += 1
        starts_width = bits_for_value(int(stream.shape[0]))
        starts = pack_fixed(positions[local_indptr], starts_width)
        return SegmentEncoding(
            codec, 0, BitArray(stream, stream.shape[0] * 8), starts, starts_width
        )
    k = _zeta_k(codec)
    payload = zeta_encode(gaps, k)
    positions = np.zeros(gaps.shape[0] + 1, dtype=np.int64)
    np.cumsum(zeta_value_nbits(gaps, k), out=positions[1:])
    starts_width = bits_for_value(payload.nbits)
    starts = pack_fixed(positions[local_indptr], starts_width)
    return SegmentEncoding(codec, k, payload, starts, starts_width)


def _measure(codec: str, gaps: np.ndarray, num_rows: int) -> int:
    """Exact :attr:`SegmentEncoding.total_bits` of *gaps* under *codec*,
    from the per-value code lengths alone — nothing is materialised."""
    if codec == "fixed":
        return gaps.shape[0] * bits_for_value(int(gaps.max()) if gaps.size else 0)
    if codec == "varint":
        nbytes = int(varint_nbytes(gaps).sum())
        return 8 * nbytes + (num_rows + 1) * bits_for_value(nbytes)
    nbits = int(zeta_value_nbits(gaps, _zeta_k(codec)).sum())
    return nbits + (num_rows + 1) * bits_for_value(nbits)


def encode_row_segment(gaps, local_indptr, candidates=None) -> SegmentEncoding:
    """Size one segment under every candidate and encode the smallest.

    *gaps* is the segment's gap-transformed column slice and
    *local_indptr* delimits its rows (``num_rows + 1`` entries, zero
    based).  Sizes compare on :attr:`SegmentEncoding.total_bits` — the
    starts table counts against variable-length codecs, so a win must
    pay for its own index.  Ties keep the earlier candidate; only the
    winner is encoded.
    """
    gaps = np.asarray(gaps, dtype=np.uint64)
    local_indptr = np.asarray(local_indptr, dtype=np.int64)
    if local_indptr.ndim != 1 or local_indptr.size == 0:
        raise ValidationError("local_indptr must be a non-empty 1-D array")
    if int(local_indptr[-1]) != gaps.shape[0]:
        raise ValidationError("local_indptr must end at len(gaps)")
    names = resolve_codecs(candidates)
    rows = local_indptr.shape[0] - 1
    sizes = [_measure(name, gaps, rows) for name in names] if len(names) > 1 else [0]
    return _encode_one(names[sizes.index(min(sizes))], gaps, local_indptr)


def row_windows(
    starts: BitArray, starts_width: int, rows
) -> tuple[np.ndarray, np.ndarray]:
    """Payload windows ``[b0, b1)`` of *rows* from a row-starts table
    (byte offsets for ``varint``, bit offsets for ``zeta``, field
    offsets for a packed CSR offset array), ``int64``.

    One field gather; a caller that also needs the windows itself (the
    disk store meters the pages they span) reads them once here and
    hands them to :func:`decode_rows`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    ends = read_fields(starts, starts_width, np.concatenate([rows, rows + 1]))
    ends = ends.astype(np.int64)
    return ends[: rows.shape[0]], ends[rows.shape[0] :]


def decode_rows(
    codec: str,
    payload: BitArray,
    enc_width: int,
    starts: BitArray | None,
    starts_width: int,
    rows,
    degrees,
    field_starts,
    *,
    windows: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode selected *rows* of one encoded segment, vectorised.

    *rows* are segment-local row indices, *degrees* their lengths, and
    *field_starts* their segment-local first-field indices (used by the
    self-indexing ``fixed`` codec; the others consult their ``starts``
    table, or take the rows' :func:`row_windows` ready-made through
    *windows*).  Returns ``(values, offsets)`` with the gap transform
    already undone — values are absolute neighbour ids as stored.
    """
    rows = np.asarray(rows, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    if codec not in SEGMENT_CODECS:
        known = ", ".join(SEGMENT_CODECS)
        raise CodecError(f"unknown codec '{codec}' (known: {known}, auto)")
    if codec == "fixed":
        from ..csr.getrow import get_rows_gap_decoded

        return get_rows_gap_decoded(payload, np.asarray(field_starts, dtype=np.int64),
                                    degrees, enc_width)
    if windows is None:
        if starts is None:
            raise CodecError(f"codec '{codec}' requires a row-starts table")
        windows = row_windows(starts, starts_width, rows)
    b0, b1 = windows
    offsets = np.zeros(rows.shape[0] + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    if codec == "varint":
        gaps = varint_decode(
            payload.buffer[: payload.nbytes], int(offsets[-1]), windows=windows
        )
        return rows_from_gaps(offsets, gaps), offsets
    gaps, offs = zeta_decode_rows(payload, b0, degrees, enc_width, bit_ends=b1)
    return rows_from_gaps(offs, gaps), offs


class SegmentArena:
    """The starts tables and payloads of consecutive row segments in one
    buffer, so a batch of rows decodes in one pass per codec *class*
    whatever number of segments it touches.

    Layout: every starts table, then every payload (byte aligned, in
    segment order, so the varint windows of a scan abut across
    segments), then 8 zero bytes (the buffer is word-addressable however
    small).  :attr:`views` holds ``(payload, starts)`` per segment,
    :class:`BitArray` views of the buffer over the very bytes handed in.
    """

    __slots__ = ("bits", "views", "codec", "enc_width", "starts_bit",
                 "starts_width", "payload_bit", "payload_nbits")

    def __init__(self, segments):
        segments = list(segments)
        nseg = len(segments)
        none = np.zeros(0, dtype=np.uint8)
        parts = [none if s.starts is None else s.starts.buffer for s in segments]
        parts += [s.payload.buffer for s in segments]
        buf = np.concatenate([*parts, np.zeros(8, dtype=np.uint8)])
        cuts = np.zeros(2 * nseg + 1, dtype=np.int64)
        np.cumsum([p.shape[0] for p in parts], out=cuts[1:])
        self.bits = BitArray(buf, 8 * int(cuts[-1]))
        self.starts_bit, self.payload_bit = 8 * cuts[:nseg], 8 * cuts[nseg:-1]
        self.views = [
            (
                BitArray(buf[cuts[nseg + i] : cuts[nseg + i + 1]], s.payload.nbits),
                None if s.starts is None
                else BitArray(buf[cuts[i] : cuts[i + 1]], s.starts.nbits),
            )
            for i, s in enumerate(segments)
        ]
        table = np.asarray(
            [(SEGMENT_CODECS.index(s.codec), s.enc_width, s.starts_width,
              s.payload.nbits) for s in segments],
            dtype=np.int64,
        ).reshape(nseg, 4)
        self.codec, self.enc_width, self.starts_width, self.payload_nbits = (
            np.ascontiguousarray(table.T)
        )

    def decode_gaps(self, seg, rows, degrees, fields) -> np.ndarray:
        """Gaps of the given non-empty rows, concatenated in their order.

        Row *i* is segment ``seg[i]``'s local row ``rows[i]`` of
        ``degrees[i]`` gaps, the first being that segment's local field
        ``fields[i]`` (all ``int64``).
        """
        codecs = self.codec[seg]
        first = int(codecs[0])
        if (codecs == first).all():
            return self._decode(first, seg, rows, degrees, fields)
        gaps = np.empty(int(degrees.sum()), dtype=np.uint64)
        of_gap = np.repeat(codecs, degrees)
        for c in np.unique(codecs).tolist():
            pick = codecs == c
            gaps[of_gap == c] = self._decode(
                c, seg[pick], rows[pick], degrees[pick], fields[pick]
            )
        return gaps

    def _decode(self, codec: int, seg, rows, degrees, fields) -> np.ndarray:
        total = int(degrees.sum())
        base, limit = self.payload_bit[seg], self.payload_nbits[seg]
        if codec == 0:  # fixed: gap j of a row sits j fields after its first
            width = self.enc_width[seg]
            if ((fields + degrees) * width > limit).any():
                raise CodecError("row runs past its segment's payload")
            ends = np.cumsum(degrees)
            ends -= degrees
            widths = np.repeat(width, degrees)
            bitpos = np.arange(total, dtype=np.int64)
            bitpos *= widths
            bitpos += np.repeat(base + (fields - ends) * width, degrees)
            return _decode_at(self.bits, widths.view(np.uint64), bitpos)
        # the row-starts table: byte offsets for varint, bit offsets for zeta
        width = self.starts_width[seg]
        at = self.starts_bit[seg] + rows * width
        ends = _decode_at(
            self.bits,
            np.concatenate([width, width]).view(np.uint64),
            np.concatenate([at, at + width]),
        ).astype(np.int64)
        b0, b1 = ends[: seg.shape[0]], ends[seg.shape[0] :]
        if ((8 * b1 if codec == 1 else b1) > limit).any():
            raise CodecError("row window runs past its segment's payload")
        if codec == 1:
            base = base >> 3
            return varint_decode(self.bits.buffer, total, windows=(base + b0, base + b1))
        k = _zeta_k(SEGMENT_CODECS[codec])
        return zeta_decode_rows(self.bits, base + b0, degrees, k, bit_ends=base + b1)[0]
