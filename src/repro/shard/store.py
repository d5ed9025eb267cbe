"""The sharded graph store: per-shard sub-stores behind one surface.

:class:`ShardedStore` range- or hash-partitions the vertex set across
*k* sub-stores, each of which is itself any existing store kind (plain
:class:`~repro.csr.CSRGraph`, :class:`~repro.csr.BitPackedCSR`, or a
baseline) holding only the edges whose *source* the shard owns.  Every
shard spans the full global node space — non-owned rows are simply
empty — so node ids never need remapping and destinations stay valid
for binary search, at the cost of replicating the (small) offset array
per shard; :meth:`memory_bytes` reports that honestly.

Point queries route through the partitioner to the one owning shard.
The batch surface is **scatter-gather**: the (already deduplicated)
query keys are scattered to their shards, each shard runs the existing
vectorised gather/decode kernel locally, and the per-shard results are
gathered back into the caller's original order — bit-exact with the
monolithic store.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError, ValidationError
from ..query.capabilities import capabilities
from ..query.stores import distinct_keys, expand_rows
from ..query.stores import neighbors_batch as _store_batch
from ..utils import human_bytes, require
from .partition import Partitioner, partitioner_from_state

__all__ = ["ShardedStore"]


class ShardedStore:
    """A partitioned graph store satisfying the ``GraphStore`` protocol.

    Parameters
    ----------
    partitioner:
        Maps each source node to its owning shard; ``num_shards`` must
        match ``len(shards)``.
    shards:
        One store per shard, every one spanning the full global node
        space (``num_nodes`` equal across shards) and all of the same
        kind, so decoded rows share a single dtype.
    """

    __slots__ = (
        "partitioner", "shards", "num_nodes", "_num_edges", "_scatters",
        "row_dtype", "column_width", "_shard_caps",
    )

    def __init__(self, partitioner: Partitioner, shards):
        shards = list(shards)
        require(len(shards) >= 1, "a sharded store needs at least one shard")
        if partitioner.num_shards != len(shards):
            raise ValidationError(
                f"partitioner routes {partitioner.num_shards} shards, got {len(shards)}"
            )
        n = int(shards[0].num_nodes)
        kind = type(shards[0])
        for s, shard in enumerate(shards):
            if int(shard.num_nodes) != n:
                raise ValidationError(
                    f"shard {s} spans {shard.num_nodes} nodes, expected {n} "
                    "(every shard must cover the global node space)"
                )
            if type(shard) is not kind:
                raise ValidationError(
                    f"shard {s} is {type(shard).__name__}, expected {kind.__name__} "
                    "(shards must share one store kind)"
                )
        self.partitioner = partitioner
        self.shards = shards
        self.num_nodes = n
        self._num_edges = int(sum(int(s.num_edges) for s in shards))
        self._scatters = np.zeros(len(shards), dtype=np.int64)
        # shards share one kind and are fixed for the store's life, so
        # their optional surface is resolved here, once — not per batch
        caps = capabilities(shards[0])
        self._shard_caps = caps
        #: dtype of decoded rows (the inner store kind's)
        self.row_dtype = caps.row_dtype
        #: inner packed column width, ``None`` for unpacked shards —
        #: declared so a sharded-over-packed store resolves as packed
        #: with the same per-element decode charge as its monolithic
        #: equivalent, keeping simulated query costs comparable
        self.column_width = caps.decode_bits if caps.is_packed else None

    # -- protocol surface -----------------------------------------------
    @property
    def num_edges(self) -> int:
        """Total edges across every shard."""
        return self._num_edges

    @property
    def num_shards(self) -> int:
        """Shard fan-out."""
        return len(self.shards)

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.num_nodes):
            raise QueryError(f"node {u} out of range [0, {self.num_nodes})")

    def degree(self, u: int) -> int:
        """Out-degree of *u* (routed to the owning shard)."""
        self._check_node(u)
        return self.shards[self.partitioner.shard_of(u)].degree(u)

    def degrees(self) -> np.ndarray:
        """Degree of every node as an ``int64`` array.

        Shards span the global node space, so the per-shard degree
        arrays align and the global vector is their elementwise sum.
        """
        out = np.zeros(self.num_nodes, dtype=np.int64)
        for shard in self.shards:
            out += shard.degrees()
        return out

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted destinations of *u* (routed to the owning shard)."""
        self._check_node(u)
        return self.shards[self.partitioner.shard_of(u)].neighbors(u)

    def has_edge(self, u: int, v: int) -> bool:
        """Edge test, routed to the shard owning source *u*."""
        self._check_node(u)
        self._check_node(v)
        return self.shards[self.partitioner.shard_of(u)].has_edge(u, v)

    # -- scatter-gather batch surface -----------------------------------
    def neighbors_batch(self, unodes) -> tuple[np.ndarray, np.ndarray]:
        """Bulk row fetch via scatter-gather — ``(flat, offsets)``.

        Scatters the query keys to their owning shards, runs each
        shard's own vectorised batch kernel over that shard's
        *distinct* keys, then gathers the rows back into the caller's
        original order.  Values and dtype are identical to per-row
        :meth:`neighbors` calls (and therefore to the monolithic
        store's batch path).
        """
        us = np.asarray(unodes, dtype=np.int64)
        if us.ndim != 1:
            raise QueryError("node batch must be 1-D")
        if us.size == 0:
            return np.zeros(0, dtype=self.row_dtype), np.zeros(1, dtype=np.int64)
        if int(us.min()) < 0 or int(us.max()) >= self.num_nodes:
            raise QueryError(f"node ids must lie in [0, {self.num_nodes})")

        # Scatter: each shard decodes only its *distinct* keys, so a
        # hot row repeated across the batch is decoded exactly once.
        sid = self.partitioner.shard_of_array(us)
        inverse = np.empty(us.shape[0], dtype=np.int64)  # key -> decoded row
        chunks, row_offs = [], [np.zeros(1, dtype=np.int64)]
        rows = base = 0
        for s in np.unique(sid):
            pos = np.flatnonzero(sid == s)
            uniq, inv = distinct_keys(us[pos])
            flat_s, offs_s = _store_batch(self.shards[int(s)], uniq, self._shard_caps)
            inverse[pos] = rows + (
                inv if inv is not None else np.arange(uniq.shape[0], dtype=np.int64)
            )
            row_offs.append(base + offs_s[1:])
            chunks.append(flat_s)
            rows += uniq.shape[0]
            base += flat_s.shape[0]
            self._scatters[int(s)] += 1
        src_flat = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        # Gather: one fused indexed copy expands the shards' distinct
        # rows back into the caller's order.
        return expand_rows(src_flat, np.concatenate(row_offs), inverse)

    def __getattr__(self, name: str):
        # Conditional page-touch surface: present exactly when every
        # shard meters mapped pages (e.g. DiskStore shards), so the
        # capability probe stays accurate for in-memory shards.
        if name == "take_page_touches":
            try:
                shards = object.__getattribute__(self, "shards")
            except AttributeError:
                raise AttributeError(name) from None
            if all(callable(getattr(s, "take_page_touches", None)) for s in shards):
                def take_page_touches() -> int:
                    """Drain every shard's distinct-page counter (summed)."""
                    return sum(int(s.take_page_touches()) for s in shards)

                return take_page_touches
        raise AttributeError(name)

    # -- observability and accounting -----------------------------------
    def scatter_counts(self) -> np.ndarray:
        """Batch fan-out so far: per-shard count of scatter calls."""
        return self._scatters.copy()

    def memory_bytes(self) -> int:
        """Shard payloads plus the partitioner's routing metadata."""
        return int(sum(int(s.memory_bytes()) for s in self.shards)) + int(
            self.partitioner.nbytes()
        )

    def __repr__(self) -> str:
        return (
            f"ShardedStore(shards={self.num_shards}, "
            f"partitioner={self.partitioner.kind}, "
            f"inner={type(self.shards[0]).__name__}, n={self.num_nodes}, "
            f"m={self.num_edges}, mem={human_bytes(self.memory_bytes())})"
        )

    # -- persistence (packed shards) ------------------------------------
    def save(self, path) -> None:
        """Persist to ``.npz`` (bit-packed shards only).

        Layout: routing state under ``partitioner_*`` keys plus each
        shard's :class:`~repro.csr.BitPackedCSR` payload under a
        ``shard{i}_`` prefix, so one file round-trips the whole store.
        """
        from ..csr.packed import BitPackedCSR

        for s, shard in enumerate(self.shards):
            if not isinstance(shard, BitPackedCSR):
                raise ValidationError(
                    f"only packed shards can be saved (shard {s} is "
                    f"{type(shard).__name__})"
                )
        payload: dict = {"store_kind": "sharded", "num_shards": self.num_shards}
        for key, value in self.partitioner.state().items():
            payload[f"partitioner_{key}"] = value
        for s, shard in enumerate(self.shards):
            prefix = f"shard{s}_"
            payload[f"{prefix}num_nodes"] = shard.num_nodes
            payload[f"{prefix}num_edges"] = shard.num_edges
            payload[f"{prefix}offset_width"] = shard.offset_width
            payload[f"{prefix}column_width"] = shard.column_width
            payload[f"{prefix}gap_encoded"] = int(shard.gap_encoded)
            payload[f"{prefix}offsets"] = shard.offsets.buffer
            payload[f"{prefix}offsets_nbits"] = shard.offsets.nbits
            payload[f"{prefix}columns"] = shard.columns.buffer
            payload[f"{prefix}columns_nbits"] = shard.columns.nbits
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path) -> "ShardedStore":
        """Rebuild a sharded packed store saved by :meth:`save`."""
        from ..bitpack.bitarray import BitArray
        from ..csr.packed import BitPackedCSR

        with np.load(path) as data:
            if "store_kind" not in data.files or str(data["store_kind"]) != "sharded":
                raise ValidationError(f"{path} is not a sharded store file")
            state = {
                key[len("partitioner_"):]: data[key]
                for key in data.files
                if key.startswith("partitioner_")
            }
            if "kind" in state:
                state["kind"] = str(state["kind"])
            partitioner = partitioner_from_state(state)
            shards = []
            for s in range(int(data["num_shards"])):
                prefix = f"shard{s}_"
                shards.append(
                    BitPackedCSR(
                        int(data[f"{prefix}num_nodes"]),
                        int(data[f"{prefix}num_edges"]),
                        BitArray(
                            data[f"{prefix}offsets"],
                            int(data[f"{prefix}offsets_nbits"]),
                        ),
                        int(data[f"{prefix}offset_width"]),
                        BitArray(
                            data[f"{prefix}columns"],
                            int(data[f"{prefix}columns_nbits"]),
                        ),
                        int(data[f"{prefix}column_width"]),
                        gap_encoded=bool(int(data[f"{prefix}gap_encoded"])),
                    )
                )
        return cls(partitioner, shards)
