"""Algorithm 4 — the bit-packed CSR ("Build bitPacked CSR").

Both CSR arrays are packed into fixed-width bit arrays: the offset
array ``iA`` at ``bits_for_value(m)`` bits per field and the column
array ``jA`` at ``bits_for_count(n)`` bits per field (optionally after
a per-row gap transform for extra compression); ``iA`` only over the
**row window**, the first to the last non-empty row, so a range shard
pays offsets for its own rows, not the whole node space.  Packing is
chunked across the executor's processors; the packed chunks are then
merged by a **serial** pass — the paper's "finalBitArray = merge all
bitArrays from global location" — which is the dominant sequential
fraction of the whole pipeline and the source of its speed-up
saturation.
"""

from __future__ import annotations

import numpy as np

from ..bitpack.bitarray import BitArray, blit_bits
from ..bitpack.delta import row_gaps
from ..bitpack.fixed import pack_fixed, read_field, read_fields, unpack_fixed
from ..errors import QueryError, ValidationError
from ..parallel.chunking import chunk_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, SerialExecutor, TaskContext
from ..query.stores import BaseStore
from ..utils import bits_for_count, bits_for_value, human_bytes, require
from .getrow import (
    get_row_from_csr,
    get_row_gap_decoded,
    get_rows_from_csr,
    get_rows_gap_decoded,
)
from .graph import CSRGraph

__all__ = ["BitPackedCSR", "pack_array_parallel", "build_bitpacked_csr"]


def pack_array_parallel(
    values: np.ndarray,
    width: int,
    executor: Executor | None = None,
    *,
    label: str = "bitpack",
) -> BitArray:
    """Pack *values* into *width*-bit fields via chunked parallel packing.

    Per Algorithm 4: each processor packs its chunk; a serial merge
    blits the packed chunks into the final bit array.  Results are
    identical to a one-shot :func:`pack_fixed`.
    """
    executor = executor or SerialExecutor()
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError("pack input must be 1-D")
    n = arr.shape[0]
    bounds = chunk_bounds(n, executor.p)

    def pack_chunk(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        if e <= s:
            return None
        chunk_bits = pack_fixed(arr[s:e], width)
        ctx.charge(Cost(reads=e - s, bit_ops=(e - s) * width))
        return chunk_bits

    chunks = executor.map_chunks(pack_chunk, range(executor.p), label=f"{label}:pack")

    def merge(ctx: TaskContext):
        out = BitArray.zeros(n * width)
        for cid, chunk_bits in enumerate(chunks):
            if chunk_bits is None:
                continue
            blit_bits(out, int(bounds[cid]) * width, chunk_bits)
        # serial streaming copy of the full packed payload — the
        # Amdahl term of the whole pipeline.
        ctx.charge(Cost(copy_bytes=2 * out.nbytes))
        return out

    return executor.serial(merge, label=f"{label}:merge")


class BitPackedCSR(BaseStore):
    """A CSR whose offset and column arrays live in packed bit arrays.

    Queryable without decompression: :meth:`neighbors` decodes exactly
    one row (``GetRowFromCSR`` [28]); :meth:`has_edge` decodes one row
    and binary-searches it.  ``offsets`` holds ``iA[first_row :
    first_row + rows + 1]``; node ``u``'s row spans fields
    ``clip(u - first_row, 0, rows)`` to ``clip(u + 1 - first_row, 0,
    rows)``, so a node outside the window reads an empty row.
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "offsets",
        "first_row",
        "rows",
        "offset_width",
        "columns",
        "column_width",
        "gap_encoded",
        "values",
        "values_width",
    )

    def __init__(
        self,
        num_nodes: int,
        num_edges: int,
        offsets: BitArray,
        offset_width: int,
        columns: BitArray,
        column_width: int,
        *,
        gap_encoded: bool = False,
        values: BitArray | None = None,
        values_width: int = 0,
        first_row: int = 0,
    ):
        require(num_nodes >= 0 and num_edges >= 0, "sizes must be non-negative")
        rows = offsets.nbits // max(1, offset_width) - 1
        require(
            rows >= 0 and offsets.nbits == (rows + 1) * offset_width
            and 0 <= first_row <= num_nodes - rows,
            f"offset window of {offsets.nbits} bits at {offset_width} bits per "
            f"field from row {first_row} does not fit {num_nodes} nodes",
        )
        require(
            columns.nbits == num_edges * column_width,
            "column bit array size mismatch",
        )
        if values is not None:
            require(values_width >= 1, "weighted CSR needs a positive values width")
            require(
                values.nbits == num_edges * values_width,
                "value bit array size mismatch",
            )
        self.num_nodes = int(num_nodes)
        self.num_edges = int(num_edges)
        self.offsets = offsets
        self.first_row = int(first_row)
        self.rows = int(rows)
        self.offset_width = int(offset_width)
        self.columns = columns
        self.column_width = int(column_width)
        self.gap_encoded = bool(gap_encoded)
        self.values = values
        self.values_width = int(values_width)

    # ------------------------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        graph: CSRGraph,
        executor: Executor | None = None,
        *,
        gap_encode: bool = False,
    ) -> "BitPackedCSR":
        """Algorithm 4: bit-pack ``iA``, ``jA``, and (if present) ``vA``.

        Weighted graphs must carry non-negative integer weights — the
        fixed-width codec of [7] packs exact integers; quantise floats
        before packing.
        """
        executor = executor or SerialExecutor()
        n, m = graph.num_nodes, graph.num_edges
        offset_width = bits_for_value(m)
        # rows before the window start at 0, rows after it at m
        first_row = int(np.searchsorted(graph.indptr, 0, side="right")) - 1 if m else 0
        end_row = int(np.searchsorted(graph.indptr, m, side="left")) if m else 0
        offsets = pack_array_parallel(
            graph.indptr[first_row : end_row + 1], offset_width, executor,
            label="bitpack:iA",
        )
        if gap_encode:
            payload = row_gaps(graph.indptr, graph.indices)
            column_width = bits_for_value(int(payload.max())) if m else 1
        else:
            payload = graph.indices
            column_width = bits_for_count(n)
        columns = pack_array_parallel(
            payload, column_width, executor, label="bitpack:jA"
        )
        values = None
        values_width = 0
        if graph.values is not None:
            weights = np.asarray(graph.values)
            if not np.issubdtype(weights.dtype, np.integer):
                raise ValidationError(
                    "bit packing needs integer weights (quantise floats first)"
                )
            if weights.size and int(weights.min()) < 0:
                raise ValidationError("bit packing needs non-negative weights")
            values_width = bits_for_value(int(weights.max())) if m else 1
            values = pack_array_parallel(
                weights, values_width, executor, label="bitpack:vA"
            )
        return cls(
            n,
            m,
            offsets,
            offset_width,
            columns,
            column_width,
            gap_encoded=gap_encode,
            values=values,
            values_width=values_width,
            first_row=first_row,
        )

    # ------------------------------------------------------------------
    def offset(self, u: int) -> int:
        """Decoded ``iA[u]`` (valid for ``0 <= u <= n``)."""
        if not (0 <= u <= self.num_nodes):
            raise QueryError(f"offset index {u} out of range [0, {self.num_nodes}]")
        field = min(max(u - self.first_row, 0), self.rows)
        return read_field(self.offsets, self.offset_width, field)

    def _indptr(self) -> np.ndarray:
        """The full ``n + 1`` entries of ``iA`` (``int64``), the window
        padded with its edge values."""
        window = unpack_fixed(self.offsets, self.rows + 1, self.offset_width)
        tail = self.num_nodes - self.first_row - self.rows
        return np.pad(window.astype(np.int64), (self.first_row, tail), mode="edge")

    def degree(self, u: int) -> int:
        """Out-degree of *u*."""
        self._check_node(u)
        return self.offset(u + 1) - self.offset(u)

    def degrees(self) -> np.ndarray:
        """Degree of every node as an ``int64`` array."""
        return np.diff(self._indptr())

    def neighbors(self, u: int) -> np.ndarray:
        """Decode node *u*'s row (sorted ids, ``uint64``)."""
        self._check_node(u)
        start = self.offset(u)
        deg = self.offset(u + 1) - start
        if self.gap_encoded:
            return get_row_gap_decoded(self.columns, start, deg, self.column_width)
        return get_row_from_csr(self.columns, start, deg, self.column_width)

    def neighbors_batch(self, unodes) -> tuple[np.ndarray, np.ndarray]:
        """Rows of many nodes, decoded in batch order — ``(flat, offsets)``.
        A row's cost depends only on its own length — a hub row
        (``unpack_fields_gather``'s long-run regime) decodes at streaming
        speed, the rest by indexed word loads — never on the key order;
        the callers that repeat keys (the row cache, the router's plan)
        hand in distinct ones, so nothing is deduplicated."""
        return self._decode_rows(self._check_keys(unodes))

    def _decode_rows(self, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode many rows with one gather per packed array.

        Every row's ``iA`` start and end come from one field gather over
        the clipped window indices, then every requested row is decoded
        from ``jA`` in one :func:`unpack_fields_gather` call.
        """
        keys = np.concatenate([us, us + 1])
        keys -= self.first_row
        # clip into the window in place (``np.clip`` costs more on small batches)
        np.minimum(np.maximum(keys, 0, out=keys), self.rows, out=keys)
        bounds = read_fields(self.offsets, self.offset_width, keys).astype(np.int64)
        starts = bounds[: us.shape[0]]
        degrees = bounds[us.shape[0] :] - starts
        if self.gap_encoded:
            return get_rows_gap_decoded(self.columns, starts, degrees, self.column_width)
        return get_rows_from_csr(self.columns, starts, degrees, self.column_width)

    @property
    def row_dtype(self) -> np.dtype:
        """Dtype of decoded neighbour rows."""
        return np.dtype(np.uint64)

    @property
    def is_weighted(self) -> bool:
        return self.values is not None

    def neighbor_weights(self, u: int) -> np.ndarray:
        """Decoded ``vA`` fields of node *u*'s row."""
        if self.values is None:
            raise QueryError("graph is unweighted")
        self._check_node(u)
        start = self.offset(u)
        deg = self.offset(u + 1) - start
        return get_row_from_csr(self.values, start, deg, self.values_width)

    # ------------------------------------------------------------------
    def to_csr(self) -> CSRGraph:
        """Full decompression back to an uncompressed :class:`CSRGraph`."""
        indptr = self._indptr()
        payload = unpack_fixed(self.columns, self.num_edges, self.column_width)
        if self.gap_encoded:
            from ..bitpack.delta import rows_from_gaps

            payload = rows_from_gaps(indptr, payload)
        values = None
        if self.values is not None:
            values = unpack_fixed(
                self.values, self.num_edges, self.values_width
            ).astype(np.int64)
        return CSRGraph(indptr, payload.astype(np.int64), values, validate=False)

    def memory_bytes(self) -> int:
        """Packed payload bytes (all bit arrays)."""
        total = self.offsets.nbytes + self.columns.nbytes
        if self.values is not None:
            total += self.values.nbytes
        return total

    def bits_per_edge(self) -> float:
        """Compressed bits spent per stored edge."""
        if self.num_edges == 0:
            return 0.0
        bits = self.offsets.nbits + self.columns.nbits
        if self.values is not None:
            bits += self.values.nbits
        return bits / self.num_edges

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitPackedCSR):
            return NotImplemented
        if (self.values is None) != (other.values is None):
            return False
        if self.values is not None and (
            self.values != other.values or self.values_width != other.values_width
        ):
            return False
        return (
            self.num_nodes == other.num_nodes
            and self.num_edges == other.num_edges
            and self.offset_width == other.offset_width
            and self.column_width == other.column_width
            and self.gap_encoded == other.gap_encoded
            and np.array_equal(self._indptr(), other._indptr())
            and self.columns == other.columns
        )

    __hash__ = None  # type: ignore[assignment]  # value equality, mutable buffers

    def __repr__(self) -> str:
        return (
            f"BitPackedCSR(n={self.num_nodes}, m={self.num_edges}, "
            f"iA@{self.offset_width}b, jA@{self.column_width}b, "
            f"gap={self.gap_encoded}, mem={human_bytes(self.memory_bytes())})"
        )

    # ------------------------------------------------------------------
    def npz_payload(self, prefix: str = "") -> dict:
        """Flat ``.npz`` key/value payload (written by :func:`~repro.stores.save_store`)."""
        payload = {
            f"{prefix}num_nodes": self.num_nodes,
            f"{prefix}num_edges": self.num_edges,
            f"{prefix}offset_width": self.offset_width,
            f"{prefix}column_width": self.column_width,
            f"{prefix}gap_encoded": int(self.gap_encoded),
            f"{prefix}offsets": self.offsets.buffer,
            f"{prefix}offsets_nbits": self.offsets.nbits,
            f"{prefix}columns": self.columns.buffer,
            f"{prefix}columns_nbits": self.columns.nbits,
        }
        if self.first_row:  # absent: the window starts at row 0
            payload[f"{prefix}first_row"] = self.first_row
        if self.values is not None:
            payload[f"{prefix}values"] = self.values.buffer
            payload[f"{prefix}values_nbits"] = self.values.nbits
            payload[f"{prefix}values_width"] = self.values_width
        return payload

    @classmethod
    def from_npz_payload(cls, data, prefix: str = "") -> "BitPackedCSR":
        """Rebuild from the key/value payload of :meth:`npz_payload`."""

        def bits(key: str) -> BitArray:
            return BitArray(data[f"{prefix}{key}"], int(data[f"{prefix}{key}_nbits"]))

        weighted = f"{prefix}values" in data.files
        return cls(
            int(data[f"{prefix}num_nodes"]),
            int(data[f"{prefix}num_edges"]),
            bits("offsets"),
            int(data[f"{prefix}offset_width"]),
            bits("columns"),
            int(data[f"{prefix}column_width"]),
            gap_encoded=bool(int(data[f"{prefix}gap_encoded"])),
            values=bits("values") if weighted else None,
            values_width=int(data[f"{prefix}values_width"]) if weighted else 0,
            first_row=int(data.get(f"{prefix}first_row", 0)),
        )


def build_bitpacked_csr(
    sources,
    destinations,
    n: int,
    executor: Executor | None = None,
    *,
    weights=None,
    sort: bool = False,
    gap_encode: bool = False,
) -> BitPackedCSR:
    """End-to-end pipeline of Section III: edge list → packed CSR.

    Runs parallel CSR construction (Algorithms 1-3) followed by
    Algorithm 4's chunked bit packing, all charged to *executor* — this
    is the operation Table II times.
    """
    from .builder import build_csr

    executor = executor or SerialExecutor()
    graph = build_csr(sources, destinations, n, executor, weights=weights, sort=sort)
    return BitPackedCSR.from_csr(graph, executor, gap_encode=gap_encode)
