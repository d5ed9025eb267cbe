"""Adaptive-codec CSR: per-segment codec selection over bit-packed iA.

:class:`CompactStore` is the in-memory back half of the compact
pipeline.  The offset array stays fixed-width bit-packed exactly as in
:class:`~repro.csr.packed.BitPackedCSR` (it is already near-entropy for
monotone counters); the *edge* column is cut into row-aligned segments
and every segment keeps whichever candidate codec
(:mod:`repro.bitpack.segcodec`) measured smallest on its own gap
distribution.  The segments' bytes live in one
:class:`~repro.bitpack.segcodec.SegmentArena`, so a batch decodes in
one pass per codec class however many segments its rows touch.

Gains come from pairing this with vertex reordering
(:mod:`repro.reorder`): reordering concentrates small gaps, and the
per-segment codecs then spend bits proportional to the local gap
entropy instead of the global maximum gap width.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import replace

import numpy as np

from ..bitpack.bitarray import BitArray
from ..bitpack.delta import row_gaps, rows_from_gaps
from ..bitpack.fixed import read_field, unpack_fixed
from ..bitpack.segcodec import (
    SegmentArena,
    SegmentEncoding,
    encode_row_segments,
    row_windows,
    segment_codec,
)
from ..bitpack.varint import varint_encode
from ..errors import ValidationError
from ..query.stores import BaseStore
from ..utils import bits_for_count, bits_for_value, human_bytes
from .graph import CSRGraph
from .packed import pack_array_parallel

__all__ = ["CompactStore", "build_compact_csr"]

_DEFAULT_SEGMENT_BYTES = 1 << 20


class CompactStore(BaseStore):
    """A ``GraphStore`` whose edge column mixes codecs per segment.

    Construct via :meth:`from_csr` or :func:`build_compact_csr`; the
    direct constructor takes pre-encoded segments (used by the
    persistence paths).
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "offsets",
        "offset_width",
        "segments",
        "_arena",
        "_seg_first_row",
        "_seg_first_field",
        "_first_rows",
    )

    def __init__(self, num_nodes, num_edges, offsets, offset_width, segments):
        self.num_nodes = int(num_nodes)
        self.num_edges = int(num_edges)
        self.offsets = offsets
        self.offset_width = int(offset_width)
        # the segments handed in are re-pointed at the arena's copy of
        # their bytes: same contents, one buffer
        self._arena = SegmentArena(segments)
        self.segments = tuple(
            replace(s, payload=payload, starts=starts)
            for s, (payload, starts) in zip(segments, self._arena.views)
        )
        self._seg_first_row = np.asarray(
            [s.first_row for s in self.segments], dtype=np.int64
        )
        self._seg_first_field = np.asarray(
            [s.first_field for s in self.segments], dtype=np.int64
        )
        self._first_rows = self._seg_first_row.tolist()  # the one-row kernel bisects it

    # -- construction ----------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        graph: CSRGraph,
        executor=None,
        *,
        codecs=None,
        segment_bytes: int = _DEFAULT_SEGMENT_BYTES,
    ) -> "CompactStore":
        """Gap-encode *graph* segment by segment, keeping the smallest codec.

        Segments are planned on the fixed-width footprint
        (``bits_for_count(n)`` bits per field), then
        :func:`~repro.bitpack.segcodec.encode_row_segments` measures
        each under every candidate in *codecs* (``None``/``"auto"`` →
        the default candidate set) and tags it with the winner.
        """
        if graph.values is not None:
            raise ValidationError("compact stores hold unweighted graphs")
        n, m = graph.num_nodes, graph.num_edges
        offset_width = bits_for_value(m)
        offsets = pack_array_parallel(
            graph.indptr, offset_width, executor, label="compact:iA"
        )
        segments = [
            enc
            for _, enc in encode_row_segments(
                graph.indptr,
                lambda f0, f1, _: graph.indices[f0:f1],
                bits_for_count(n),
                segment_bytes,
                codecs,
            )
        ]
        return cls(n, m, offsets, offset_width, segments)

    def patched(
        self,
        nodes,
        rows,
        executor=None,
        *,
        codecs=None,
        segment_bytes: int = _DEFAULT_SEGMENT_BYTES,
    ) -> "CompactStore":
        """The store :func:`build_compact_csr` builds from this store's
        edges with row ``nodes[i]`` replaced by the sorted ``rows[i]`` —
        byte for byte — re-encoding only those rows.

        LEB128 codes each gap on its own and rows are independent gap
        chains, so the LEB128 stream of the new column is the old code of
        every clean row with the new rows' codes spliced in: clean rows
        of a segment whose payload is that code (``varint``) are copied
        as byte runs of the old arena, the written rows are encoded in
        one batch, and the rows of any other old segment are decoded once
        and encoded with them.  The offsets are patched and packed as
        :meth:`from_csr` packs them (same executor charges), and the
        column is re-planned and encoded through the same
        :func:`~repro.bitpack.segcodec.encode_row_segments`, handed each
        segment's stream: the default codecs are measured exactly from
        the bytes, a ``varint`` winner keeps them, and anything else
        decodes them first.
        """
        n = self.num_nodes
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1 or nodes.shape[0] != len(rows):
            raise ValidationError("patched takes one row per node")
        if nodes.size and (
            int(nodes[0]) < 0 or int(nodes[-1]) >= n or (np.diff(nodes) <= 0).any()
        ):
            raise ValidationError(
                f"patched nodes must be strictly increasing ids in [0, {n})"
            )
        lengths = np.fromiter((len(r) for r in rows), dtype=np.int64, count=len(rows))
        local = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=local[1:])
        values = np.concatenate(
            [np.zeros(0, dtype=np.int64), *(np.asarray(r, dtype=np.int64) for r in rows)]
        )
        if values.size and (int(values.min()) < 0 or int(values.max()) >= n):
            raise ValidationError(f"patched rows must hold node ids in [0, {n})")
        new_gaps = row_gaps(local, values)  # raises on an unsorted row

        # Alg. 1 over the patched degrees, packed as from_csr packs them
        old = unpack_fixed(self.offsets, n + 1, self.offset_width).astype(np.int64)
        degrees = np.diff(old)
        degrees[nodes] = lengths
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        m = int(indptr[-1])
        offset_width = bits_for_value(m)
        offsets = pack_array_parallel(indptr, offset_width, executor, label="compact:iA")

        # every row's varint bytes, as a window of one of two buffers: the
        # old arena (a clean row of a varint segment) or the fresh stream
        # (a written row, or a row of a non-varint old segment)
        pos = np.zeros(n, dtype=np.int64)
        nbytes = np.zeros(n, dtype=np.int64)
        fresh = np.zeros(n, dtype=bool)
        for s, lo in zip(self.segments, self._arena.payload_lo.tolist()):
            r0, r1 = s.first_row, s.first_row + s.num_rows
            if segment_codec(s.codec).encode_coded is None:  # not a LEB128 payload
                fresh[r0:r1] = True
                continue
            table = unpack_fixed(s.starts, s.num_rows + 1, s.starts_width).astype(np.int64)
            pos[r0:r1] = table[:-1] + lo
            nbytes[r0:r1] = np.diff(table)
        written = np.zeros(n, dtype=bool)
        written[nodes] = True
        fresh |= written
        fresh &= degrees > 0
        nbytes[nodes] = 0
        rows_f = np.flatnonzero(fresh)
        stream_f = np.zeros(0, dtype=np.uint8)
        if rows_f.size:
            gaps = np.empty(int(degrees[rows_f].sum()), dtype=np.uint64)
            of_written = np.repeat(written[rows_f], degrees[rows_f])
            gaps[of_written] = new_gaps
            kept = rows_f[~written[rows_f]]
            if kept.size:
                seg = np.searchsorted(self._seg_first_row, kept, side="right") - 1
                gaps[~of_written] = self._arena.decode_gaps(
                    seg,
                    kept - self._seg_first_row[seg],
                    degrees[kept],
                    old[kept] - self._seg_first_field[seg],
                )
            stream_f = varint_encode(gaps)
            ends = np.flatnonzero(stream_f < 0x80)[np.cumsum(degrees[rows_f]) - 1] + 1
            nbytes[rows_f] = np.diff(ends, prepend=0)
            pos[rows_f] = ends - nbytes[rows_f]

        # the new column: one slice per run of rows whose windows abut
        live = np.flatnonzero(nbytes)
        of_fresh, at, size = fresh[live], pos[live], nbytes[live]
        cut = np.flatnonzero(
            (of_fresh[1:] != of_fresh[:-1]) | (at[1:] != at[:-1] + size[:-1])
        ) + 1
        first = np.concatenate(([0], cut))[: live.size]
        last = np.concatenate((cut, [live.size]))[: live.size] - 1
        arena = self._arena.bits.buffer
        column = np.concatenate([
            np.zeros(0, dtype=np.uint8),
            *(
                (stream_f if f else arena)[b0:b1]
                for f, b0, b1 in zip(
                    of_fresh[first].tolist(),
                    at[first].tolist(),
                    (at[last] + size[last]).tolist(),
                )
            ),
        ])
        row_byte = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(nbytes, out=row_byte[1:])

        def coded(f0, f1, _):  # an empty row has no bytes: any row at f0 starts them
            b0, b1 = row_byte[np.searchsorted(indptr, (f0, f1))]
            return column[b0:b1]

        segments = [
            enc
            for _, enc in encode_row_segments(
                indptr, coded, bits_for_count(n), segment_bytes, codecs,
                row_bytes=row_byte,
            )
        ]
        return type(self)(n, m, offsets, offset_width, segments)

    # -- protocol surface -----------------------------------------------
    @property
    def row_dtype(self) -> np.dtype:
        """Dtype of decoded neighbour rows."""
        return np.dtype(np.uint64)

    @property
    def column_width(self):
        """Mean edge-payload bits per edge, rounded up.

        Declared so capability resolution marks the store packed and
        charges a realistic per-element decode cost; unlike the
        fixed-width stores this is an *average*, since segments differ.
        """
        if self.num_edges == 0:
            return 1
        edge_bits = sum(s.total_bits for s in self.segments)
        return max(1, -(-edge_bits // self.num_edges))

    @property
    def gap_encoded(self) -> bool:
        """Always true: every segment codec works on the gap transform."""
        return True

    def degree(self, u: int) -> int:
        """Out-degree of *u*."""
        self._check_node(u)
        first = read_field(self.offsets, self.offset_width, u)
        return read_field(self.offsets, self.offset_width, u + 1) - first

    def degrees(self) -> np.ndarray:
        """Degree of every node as an ``int64`` array."""
        offs = unpack_fixed(self.offsets, self.num_nodes + 1, self.offset_width)
        return np.diff(offs).astype(np.int64)

    def _decode_rows(self, uniq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode the rows of *uniq* in one vectorised pass per codec
        class — values and dtype identical to the equivalent
        :class:`~repro.csr.packed.BitPackedCSR`.  A single key (the
        scalar surface, an LSM's first touch of a row) is read field by
        field instead: a batch of one is all fixed cost."""
        if uniq.shape[0] == 1:
            return self._decode_row(int(uniq[0]))
        field_starts, ends = row_windows(self.offsets, self.offset_width, uniq)
        degrees = ends - field_starts

        uniq_offs = np.zeros(uniq.shape[0] + 1, dtype=np.int64)
        np.cumsum(degrees, out=uniq_offs[1:])
        if int(uniq_offs[-1]) == 0:
            return np.zeros(0, dtype=np.uint64), uniq_offs
        if int(degrees.min()) == 0:  # empty rows own no bytes in any segment
            live = np.flatnonzero(degrees)
            uniq, degrees, field_starts = uniq[live], degrees[live], field_starts[live]
        # uniq ascends, so do the segments and the arena bytes of its
        # rows: the gaps come back in uniq order, ready for the prefix sum
        seg = np.searchsorted(self._seg_first_row, uniq, side="right") - 1
        gaps = self._arena.decode_gaps(
            seg,
            uniq - self._seg_first_row[seg],
            degrees,
            field_starts - self._seg_first_field[seg],
        )
        return rows_from_gaps(uniq_offs, gaps), uniq_offs

    def _decode_row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_decode_rows` of the one key *u*, on scalars."""
        first = read_field(self.offsets, self.offset_width, u)
        degree = read_field(self.offsets, self.offset_width, u + 1) - first
        offs = np.asarray([0, degree], dtype=np.int64)
        if degree == 0:
            return np.zeros(0, dtype=np.uint64), offs
        seg = bisect_right(self._first_rows, u) - 1
        segment = self.segments[seg]
        gaps = self._arena.decode_row(
            seg, u - segment.first_row, degree, first - segment.first_field
        )
        return gaps.cumsum(out=gaps), offs

    # -- accounting ------------------------------------------------------
    def codec_breakdown(self) -> dict:
        """Per-codec aggregate: segment count, edges covered, total bits."""
        out: dict = {}
        for s in self.segments:
            entry = out.setdefault(s.codec, {"segments": 0, "edges": 0, "bits": 0})
            entry["segments"] += 1
            entry["edges"] += s.num_fields
            entry["bits"] += s.total_bits
        return out

    def bits_per_edge(self) -> float:
        """Compressed bits spent per stored edge (iA + adaptive jA)."""
        if self.num_edges == 0:
            return 0.0
        bits = self.offsets.nbits + sum(s.total_bits for s in self.segments)
        return bits / self.num_edges

    def memory_bytes(self) -> int:
        """Packed payload bytes plus the segment lookup tables."""
        total = self.offsets.nbytes
        for s in self.segments:
            total += s.payload.nbytes + (s.starts.nbytes if s.starts else 0)
        total += self._seg_first_row.nbytes + self._seg_first_field.nbytes
        return int(total)

    def to_csr(self) -> CSRGraph:
        """Full decompression back to an uncompressed :class:`CSRGraph`."""
        indptr = unpack_fixed(
            self.offsets, self.num_nodes + 1, self.offset_width
        ).astype(np.int64)
        flat, _ = self.neighbors_batch(np.arange(self.num_nodes, dtype=np.int64))
        return CSRGraph(indptr, flat.astype(np.int64), None, validate=False)

    def __repr__(self) -> str:
        mix = ",".join(f"{k}:{v['segments']}" for k, v in sorted(self.codec_breakdown().items()))
        return (
            f"CompactStore(n={self.num_nodes}, m={self.num_edges}, "
            f"segments={len(self.segments)} [{mix}], "
            f"mem={human_bytes(self.memory_bytes())})"
        )

    # -- persistence -----------------------------------------------------
    def npz_payload(self, prefix: str = "") -> dict:
        """Flat ``.npz`` key/value payload (written by :func:`~repro.stores.save_store`)."""
        payload: dict = {
            f"{prefix}num_nodes": self.num_nodes,
            f"{prefix}num_edges": self.num_edges,
            f"{prefix}offset_width": self.offset_width,
            f"{prefix}offsets": self.offsets.buffer,
            f"{prefix}offsets_nbits": self.offsets.nbits,
            f"{prefix}num_segments": len(self.segments),
        }
        for i, s in enumerate(self.segments):
            p = f"{prefix}seg{i}_"
            payload[f"{p}meta"] = np.asarray(
                [s.first_row, s.num_rows, s.first_field, s.num_fields,
                 s.enc_width, s.starts_width],
                dtype=np.int64,
            )
            payload[f"{p}codec"] = s.codec
            payload[f"{p}payload"] = s.payload.buffer
            payload[f"{p}payload_nbits"] = s.payload.nbits
            starts = s.starts if s.starts is not None else BitArray.zeros(0)
            payload[f"{p}starts"] = starts.buffer
            payload[f"{p}starts_nbits"] = starts.nbits
        return payload

    @classmethod
    def from_npz_payload(cls, data, prefix: str = "") -> "CompactStore":
        """Rebuild from the key/value payload of :meth:`npz_payload`."""
        segments = []
        for i in range(int(data[f"{prefix}num_segments"])):
            p = f"{prefix}seg{i}_"
            meta = np.asarray(data[f"{p}meta"], dtype=np.int64)
            codec = segment_codec(str(data[f"{p}codec"])).name
            starts_nbits = int(data[f"{p}starts_nbits"])
            starts = (
                BitArray(data[f"{p}starts"], starts_nbits) if starts_nbits else None
            )
            segments.append(
                SegmentEncoding(
                    first_row=int(meta[0]),
                    num_rows=int(meta[1]),
                    first_field=int(meta[2]),
                    num_fields=int(meta[3]),
                    codec=codec,
                    enc_width=int(meta[4]),
                    payload=BitArray(
                        data[f"{p}payload"], int(data[f"{p}payload_nbits"])
                    ),
                    starts=starts,
                    starts_width=int(meta[5]),
                )
            )
        return cls(
            int(data[f"{prefix}num_nodes"]),
            int(data[f"{prefix}num_edges"]),
            BitArray(data[f"{prefix}offsets"], int(data[f"{prefix}offsets_nbits"])),
            int(data[f"{prefix}offset_width"]),
            segments,
        )


def build_compact_csr(
    sources,
    destinations,
    num_nodes: int,
    executor=None,
    *,
    codecs=None,
    segment_bytes: int = _DEFAULT_SEGMENT_BYTES,
    sort: bool = True,
) -> CompactStore:
    """End-to-end: edge list → CSR → adaptive per-segment encoding."""
    from .builder import build_csr_serial, ensure_sorted

    if sort:
        sources, destinations = ensure_sorted(sources, destinations)
    graph = build_csr_serial(sources, destinations, num_nodes)
    return CompactStore.from_csr(
        graph, executor, codecs=codecs, segment_bytes=segment_bytes
    )
