"""The sharded graph store: per-shard sub-stores behind one surface.

:class:`ShardedStore` range- or hash-partitions the vertex set across
*k* sub-stores, each of which is itself any existing store kind (plain
:class:`~repro.csr.CSRGraph`, :class:`~repro.csr.BitPackedCSR`, or a
baseline) holding only the edges whose *source* the shard owns.  Every
shard spans the full global node space — non-owned rows are simply
empty — so node ids never need remapping and destinations stay valid
for binary search.  A packed shard stores offsets only for its row
window (first to last non-empty row), so range shards pay about one
offset array in all; a hash shard's window is the whole node space.
:meth:`memory_bytes` reports what is held.

Point queries route through the partitioner to the one owning shard.
The batch surface is **scatter-gather**: the (already deduplicated)
query keys are scattered to their shards, each shard runs the existing
vectorised gather/decode kernel locally, and the per-shard results are
gathered back into the caller's original order — bit-exact with the
monolithic store.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..query.stores import WrapperStore, expand_rows
from ..query.stores import neighbors_batch as _store_batch
from ..utils import human_bytes, require
from .partition import Partitioner, partitioner_from_state

__all__ = ["ShardedStore"]


class ShardedStore(WrapperStore):
    """A partitioned graph store satisfying the ``GraphStore`` protocol.

    Parameters
    ----------
    partitioner:
        Maps each source node to its owning shard; ``num_shards`` must
        match ``len(shards)``.
    shards:
        One store per shard, every one spanning the full global node
        space (``num_nodes`` equal across shards; a packed shard holds
        offsets only for its own row window) and all of the same kind,
        so decoded rows share a single dtype.
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
        # shards share one kind, so the first one's surface is all of theirs
        self._shard_caps = self._resolve_inner(shards[0])

    # -- protocol surface -----------------------------------------------
    @property
    def num_edges(self) -> int:
        """Total edges across every shard."""
        return self._num_edges

    @property
    def num_shards(self) -> int:
        """Shard fan-out."""
        return len(self.shards)

    def _inner_stores(self):
        return self.shards

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
    def _decode_rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of *keys* via scatter-gather.

        Scatters the keys to their owning shards and runs each shard's
        own vectorised batch kernel over its (still increasing) share.
        Over range-partitioned shards an increasing batch is already
        grouped by shard, so the shards' payloads concatenate in batch
        order and nothing is copied; otherwise one fused indexed copy
        gathers the rows back.
        """
        sid = self.partitioner.shard_of_array(keys)
        order = None
        if not bool((sid[1:] >= sid[:-1]).all()):
            order = np.argsort(sid, kind="stable")
            keys, sid = keys[order], sid[order]
        cuts = [0, *(np.flatnonzero(sid[1:] != sid[:-1]) + 1).tolist(), keys.shape[0]]
        chunks, row_offs = [], [np.zeros(1, dtype=np.int64)]
        base = 0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            s = int(sid[lo])
            flat_s, offs_s = _store_batch(self.shards[s], keys[lo:hi], self._shard_caps)
            row_offs.append(base + offs_s[1:])
            chunks.append(flat_s)
            base += flat_s.shape[0]
            self._scatters[s] += 1
        flat = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        offsets = np.concatenate(row_offs)
        if order is None:
            return flat, offsets
        back = np.empty_like(order)
        back[order] = np.arange(order.shape[0], dtype=np.int64)
        return expand_rows(flat, offsets, back)

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
    def npz_payload(self, prefix: str = "") -> dict:
        """Flat ``.npz`` key/value payload (bit-packed shards only).

        Layout: routing state under ``partitioner_*`` keys plus each
        shard's :class:`~repro.csr.BitPackedCSR` payload under a
        ``shard{i}_`` prefix, so one file round-trips the whole store.
        """
        from ..csr.packed import BitPackedCSR

        if not isinstance(self.shards[0], BitPackedCSR):  # shards share one kind
            raise ValidationError(
                f"only packed shards can be saved (the shards are {type(self.shards[0]).__name__})"
            )
        payload: dict = {f"{prefix}num_shards": self.num_shards}
        for key, value in self.partitioner.state().items():
            payload[f"{prefix}partitioner_{key}"] = value
        for s, shard in enumerate(self.shards):
            payload.update(shard.npz_payload(prefix=f"{prefix}shard{s}_"))
        return payload

    @classmethod
    def from_npz_payload(cls, data, prefix: str = "") -> "ShardedStore":
        """Rebuild from the key/value payload of :meth:`npz_payload`."""
        from ..csr.packed import BitPackedCSR

        routing = f"{prefix}partitioner_"
        state = {
            key[len(routing):]: data[key] for key in data.files if key.startswith(routing)
        }
        shards = [
            BitPackedCSR.from_npz_payload(data, prefix=f"{prefix}shard{s}_")
            for s in range(int(data[f"{prefix}num_shards"]))
        ]
        return cls(partitioner_from_state(state), shards)
