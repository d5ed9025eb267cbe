"""The log-structured store: a memtable delta over one immutable base.

Reads merge two layers, newest first: the
:class:`~repro.lsm.memtable.DeltaMemtable` (inserted edges win,
tombstones suppress), then the immutable base store (any registered
store kind).  A clean row — no resident delta — is served straight off
the base, so under read-mostly traffic the LSM costs one dict probe
over the immutable store it wraps.

:meth:`compact` folds memtable + base into one fresh base, then
atomically swaps it in and clears the memtable.  Over a compact base
with ``inner="compact"`` it *patches*:
:meth:`~repro.csr.compact.CompactStore.patched` re-encodes only the
written rows and copies every clean row's varint bytes, so a compaction
costs per written row, not per graph.  Every other shape — packed, csr
and disk inners, an overlay whose inner kind differs from its base —
*rebuilds*: the *logical* edge set is fed back through
:func:`repro.open_store`, i.e. the paper's Alg. 1 chunked prefix-sum
pipeline for CSR-family inners.  Either way the new base is
byte-identical to a from-scratch build of the logical edge set
(property-tested in ``tests/lsm``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..query.capabilities import capabilities
from ..query.stores import WrapperStore, locate_keys
from ..query.stores import neighbors_batch as _store_batch
from ..utils import human_bytes, require
from .memtable import DeltaMemtable

__all__ = ["LsmStore", "LsmStats"]


def _as_int64(flat: np.ndarray) -> np.ndarray:
    """Base rows as ``int64``: the same bytes where they are ``uint64``."""
    return flat.view(np.int64) if flat.dtype == np.uint64 else flat.astype(np.int64, copy=False)


@dataclass(frozen=True, slots=True)
class LsmStats:
    """Snapshot of an :class:`LsmStore`'s structure and write counters."""

    memtable_edges: int
    tombstones: int
    logical_edges: int
    inserts: int
    deletes: int
    write_noops: int
    compactions: int
    compact_watermark: int


def _locate(row: np.ndarray, v: int) -> tuple[int, bool]:
    """Where *v* sits (or would go) in the sorted *row* — ``(at, found)``."""
    at = int(row.searchsorted(v))
    return at, at < row.shape[0] and int(row[at]) == v


def _apply_delta(offsets, dst, us, vs, alive) -> tuple[np.ndarray, np.ndarray]:
    """Apply memtable entries to sorted, distinct CSR rows.

    ``(us, vs, alive)`` are :meth:`DeltaMemtable.entries` — sorted by
    ``(u, v)`` (the present and the absent ones each, at least), *alive*
    saying whether the edge is to be present or absent.  Every entry is
    located in its row by one bisection run over all entries at once;
    the absent ones found are dropped and the present ones not found
    inserted, one pass over *dst* each.
    Returns ``(degrees, dst)`` of the new rows.
    """
    degrees = np.diff(offsets)
    if us.size == 0:
        return degrees, dst
    lo, end = offsets[us], offsets[us + 1]
    hi = end.copy()
    while (lo < hi).any():  # ceil(log2(longest row)) + 1 rounds
        mid = (lo + hi) >> 1
        less = dst.take(mid, mode="clip") < vs  # a closed range stays put either way
        lo = np.where(less & (mid < hi), mid + 1, lo)
        hi = np.where(less, hi, mid)
    found = lo < end
    found[found] = dst[lo[found]] == vs[found]
    dead, new = found & ~alive, alive & ~found
    np.subtract.at(degrees, us[dead], 1)
    np.add.at(degrees, us[new], 1)
    dropped = lo[dead]
    if dropped.size:
        dst = np.delete(dst, dropped)
    # an insert position among the kept edges: less the edges dropped before it
    return degrees, np.insert(dst, lo[new] - np.searchsorted(dropped, lo[new]), vs[new])


class LsmStore(WrapperStore):
    """A mutable graph store satisfying the ``GraphStore`` protocol.

    The store models a *set* of directed edges: checked writes dedup
    (inserting a present edge is a no-op), so the base is expected to
    hold distinct edges — :func:`build_lsm_store` dedups its input, but
    when wrapping a pre-built multigraph store the duplicate copies make
    ``num_edges`` bookkeeping and per-row merge results diverge from
    multigraph row lengths.

    Parameters
    ----------
    num_nodes:
        Global node-space size (the base must span it).
    segments:
        A one-element list holding the immutable base store (which may
        hold no edges).
    inner:
        Registered store kind :meth:`compact` builds the base as
        (``"compact"`` over a compact base: it patches it).
    inner_opts:
        Extra options for the inner builder (e.g. ``gap_encode=True``).
    compact_watermark:
        When positive, :meth:`maybe_compact` fires once the memtable
        holds this many entries; ``0`` disables auto-compaction.
    executor:
        Default executor for compaction (rebuild or patch).
    """

    __slots__ = (
        "num_nodes",
        "segments",
        "memtable",
        "inner",
        "inner_opts",
        "compact_watermark",
        "executor",
        "inserts",
        "deletes",
        "write_noops",
        "compactions",
        "_num_edges",
        "_rows",
        "_caps_segment",
        "_caps",
    )

    def __init__(
        self,
        num_nodes: int,
        segments,
        *,
        inner: str = "packed",
        inner_opts: dict | None = None,
        compact_watermark: int = 0,
        executor=None,
        memtable: DeltaMemtable | None = None,
        num_edges: int | None = None,
    ):
        require(num_nodes >= 0, "node count must be non-negative")
        require(compact_watermark >= 0, "compact watermark must be >= 0")
        # exactly one base; a list only because callers read and reassign
        # ``segments`` as one (a benchmark harness wraps the base in place)
        segments = list(segments)
        if len(segments) != 1:
            raise ValidationError(
                f"an lsm store has exactly one base segment, got {len(segments)}"
            )
        if int(segments[0].num_nodes) != int(num_nodes):
            raise ValidationError(
                f"the base spans {segments[0].num_nodes} nodes, expected "
                f"{num_nodes} (it must cover the global node space)"
            )
        self.num_nodes = int(num_nodes)
        self.segments = segments
        self.memtable = memtable if memtable is not None else DeltaMemtable()
        self.inner = str(inner)
        self.inner_opts = dict(inner_opts or {})
        self.compact_watermark = int(compact_watermark)
        self.executor = executor
        self.inserts = 0
        self.deletes = 0
        self.write_noops = 0
        self.compactions = 0
        # the current sorted row of every node written this epoch (and of
        # every dirty node read): hub-skewed traffic writes and re-reads
        # the same rows, so each is decoded once per compaction epoch and
        # a write replaces it with a splice — a new array, never an
        # in-place edit, so a reply already handed out keeps its contents
        self._rows: dict[int, np.ndarray] = {}
        self._caps_segment = None
        self._caps = None
        if num_edges is None:  # count the merged view
            num_edges = self.degrees().sum()
        self._num_edges = int(num_edges)

    # -- protocol surface -----------------------------------------------
    @property
    def num_edges(self) -> int:
        """Logical edge count: base edges, minus tombstoned copies,
        plus memtable-only inserts (maintained incrementally by the
        checked write path)."""
        return self._num_edges

    @property
    def row_dtype(self) -> np.dtype:
        """Dtype of decoded rows: always ``int64``.

        Capabilities are resolved once per engine, but an LSM row's
        provenance changes under writes (clean pass-through vs merged
        delta patch), so the store commits to one dtype and casts
        base rows on the way out rather than flip mid-stream.
        """
        return np.dtype(np.int64)

    def _inner_stores(self):
        return self.segments

    def _segment_batch(self, us) -> tuple[np.ndarray, np.ndarray]:
        """Bulk fetch from the base.  Its capabilities are resolved once
        per base *object* — compaction swaps in a fresh one, which
        re-resolves here on its first batch."""
        segment = self.segments[0]
        if self._caps_segment is not segment:
            self._caps_segment, self._caps = segment, capabilities(segment)
        return _store_batch(segment, us, self._caps)

    def _base_row(self, u: int) -> np.ndarray:
        """*u*'s row in the base, as int64."""
        return _as_int64(np.asarray(self.segments[0].neighbors(u)))

    def _row(self, u: int) -> np.ndarray:
        """Row *u* under the merged view, materialised once per epoch.

        Writes keep it current themselves; only a delta that arrived
        with the memtable (:meth:`from_npz_payload`) is merged here, through
        compaction's :func:`_apply_delta`."""
        row = self._rows.get(u)
        if row is not None:
            return row
        row = self._base_row(u)
        delta = self.memtable.row_delta(u)
        if delta is not None:
            adds, dels = delta
            if row.shape[0] and adds.shape[0]:
                # alive yet in a base: written before a re-insert dropped
                # its tombstone.  Dropped, so "alive" means memtable-only
                for v in adds[locate_keys(row, adds)[1]].tolist():
                    self.memtable.remove(u, v)
            vs = np.concatenate([adds, dels])
            alive = np.arange(vs.shape[0]) < adds.shape[0]
            ends = np.asarray([0, row.shape[0]])
            row = _apply_delta(ends, row, np.zeros_like(vs), vs, alive)[1]
        elif row.base is not None:  # a view would pin its whole decode buffer
            row = row.copy()
        self._rows[u] = row
        return row

    def _dirty_mask(self, us: np.ndarray) -> np.ndarray | None:
        """Which of *us* have a resident delta (``None`` when none has):
        one binary search against the memtable's sorted dirty sources."""
        nodes = self.memtable.dirty_nodes()
        if nodes.size == 0:
            return None
        mask = locate_keys(nodes, us)[1]
        return mask if mask.any() else None

    def neighbors_batch(self, unodes) -> tuple[np.ndarray, np.ndarray]:
        """Bulk row fetch — ``(flat, offsets)``.  The dirty-row patch
        works in any key order, so deduplicating is left to the base."""
        return self._decode_rows(self._check_keys(unodes))

    def _decode_rows(self, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of *us* under the merged view.

        A clean batch passes straight through the base's own vectorised
        kernel (zero merge work).  Otherwise a dirty row is its
        materialised row (a hub written and re-read under skewed traffic
        is decoded once per compaction epoch, not once per write), and
        the clean keys are decoded in one base batch, whose runs pass
        through as slices between them.
        """
        dirty = self._dirty_mask(us)
        if dirty is None:
            flat, offs = self._segment_batch(us)
            return _as_int64(flat), offs
        dirty_at = np.flatnonzero(dirty)
        rows = [self._row(u) for u in us[dirty_at].tolist()]
        clean = ~dirty
        flat, offs = self._segment_batch(us[clean])
        flat = _as_int64(flat)
        lengths = np.empty(us.shape[0], dtype=np.int64)
        lengths[clean] = np.diff(offs)
        lengths[dirty_at] = [row.shape[0] for row in rows]
        pieces, done = [], 0
        # the j-th dirty position has i - j clean keys before it
        for j, (i, row) in enumerate(zip(dirty_at.tolist(), rows)):
            pieces += (flat[offs[done] : offs[i - j]], row)
            done = i - j
        pieces.append(flat[offs[done] :])
        offsets = np.zeros(us.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return np.concatenate(pieces), offsets

    def degree(self, u: int) -> int:
        """Out-degree of *u* under the merged view."""
        u = int(u)
        self._check_node(u)
        if self.memtable.is_dirty(u):
            return int(self._row(u).shape[0])
        return int(self.segments[0].degree(u))

    def degrees(self) -> np.ndarray:
        """Degree of every node as an ``int64`` array."""
        _, offs = self.neighbors_batch(
            np.arange(self.num_nodes, dtype=np.int64)
        )
        return np.diff(offs)

    def has_edge(self, u: int, v: int) -> bool:
        """Edge test: the materialised row of a written node decides;
        otherwise the memtable's verdict, then the base row — decoded,
        bisected and not kept (only the write path memoises, so probing
        a write-free overlay grows nothing)."""
        u, v = int(u), int(v)
        self._check_node(u)
        self._check_node(v)
        row = self._rows.get(u)
        if row is None:
            state = self.memtable.state(u, v)
            if state is not None:
                return state
            row = self._base_row(u)
        return _locate(row, v)[1]

    # -- writes ---------------------------------------------------------
    def _locate_for_write(self, u: int, v: int) -> tuple[np.ndarray, int, bool]:
        """Checked ``(row, at, found)`` of ``(u, v)`` in *u*'s materialised
        row: a no-op write leaves it memoised too, so the next write to a
        hub does not decode again."""
        self._check_node(u)
        self._check_node(v)
        row = self._row(u)
        return (row, *_locate(row, v))

    def insert_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``; returns False (a no-op) when the
        edge already exists in the merged view.  An insert landing on a
        tombstone drops it — the delta falls silent and the base edge
        shows again — so an alive entry is always memtable-only."""
        u, v = int(u), int(v)
        row, at, found = self._locate_for_write(u, v)
        if found:
            self.write_noops += 1
            return False
        if self.memtable.state(u, v) is False:
            self.memtable.remove(u, v)
        else:
            self.memtable.insert(u, v)
        self._rows[u] = np.concatenate((row[:at], (v,), row[at:]))
        self.inserts += 1
        self._num_edges += 1
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)``; returns False (a no-op) when the
        edge is already absent.  A delete landing on a memtable-only
        insert removes the entry outright — the edge never reached a
        segment, so no tombstone is needed."""
        u, v = int(u), int(v)
        row, at, found = self._locate_for_write(u, v)
        if not found:
            self.write_noops += 1
            return False
        if self.memtable.state(u, v):
            self.memtable.remove(u, v)
        else:
            self.memtable.delete(u, v)
        self._rows[u] = np.concatenate((row[:at], row[at + 1 :]))
        self.deletes += 1
        self._num_edges -= 1
        return True

    # -- compaction -----------------------------------------------------
    def _logical_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The merged edge set as u-sorted ``(src, dst)`` int64 arrays: the
        memtable's entries merged into the scanned base rows as arrays
        (:func:`_apply_delta`)."""
        nodes = np.arange(self.num_nodes, dtype=np.int64)
        flat, offs = self._segment_batch(nodes)
        degrees, dst = _apply_delta(offs, _as_int64(flat), *self.memtable.entries())
        return np.repeat(nodes, degrees), dst

    def _segment_opts(self) -> dict:
        # a directory-backed inner (``disk``) writes each generation
        # into its own sub-directory instead of clobbering the live one
        opts = dict(self.inner_opts)
        if opts.get("path") is not None:
            from pathlib import Path

            opts["path"] = Path(opts["path"]) / f"gen-{self.compactions + 1}"
        return opts

    def compact(self, executor=None) -> None:
        """Fold memtable + base into one fresh base, atomically.

        Over a base with a ``patched`` method (a compact store, or a
        proxy forwarding to one) and ``inner="compact"``, the base
        patches itself: only the written rows are re-encoded and the
        output is byte-identical to a rebuild.  Everything else —
        packed, csr and disk inners, an overlay whose inner kind differs
        from its base — rebuilds the merged logical edge set through the
        registered inner builder (the Alg. 1 chunked prefix-sum pipeline
        for the CSR family).  Then the base is swapped and the memtable
        cleared in one step — readers before see the old layers, readers
        after see the new base, and both views decode identical rows.
        """
        from ..stores import open_store  # deferred: registry imports us

        executor = executor if executor is not None else self.executor
        patch = getattr(self.segments[0], "patched", None) if self.inner == "compact" else None
        if patch is not None:
            nodes = self.memtable.dirty_nodes()
            # the build options that shape the bytes (``sort`` cannot: the
            # logical edge set is sorted)
            opts = {k: v for k, v in self.inner_opts.items()
                    if k in ("codecs", "segment_bytes")}
            segment = patch(
                nodes, [self._row(u) for u in nodes.tolist()], executor, **opts
            )
        else:
            src, dst = self._logical_edges()
            segment = open_store(
                self.inner, src, dst, self.num_nodes,
                executor=executor, **self._segment_opts(),
            )
        self.segments = [segment]
        self.memtable.clear()
        self._rows.clear()
        self.compactions += 1
        self._num_edges = int(segment.num_edges)

    def maybe_compact(self, executor=None) -> bool:
        """Compact when the memtable crossed the watermark; returns
        whether a compaction ran."""
        if (
            self.compact_watermark > 0
            and len(self.memtable) >= self.compact_watermark
        ):
            self.compact(executor)
            return True
        return False

    # -- observability --------------------------------------------------
    def stats(self) -> LsmStats:
        """Structure and write counters as an immutable snapshot."""
        return LsmStats(
            memtable_edges=len(self.memtable),
            tombstones=self.memtable.tombstones,
            logical_edges=self._num_edges,
            inserts=self.inserts,
            deletes=self.deletes,
            write_noops=self.write_noops,
            compactions=self.compactions,
            compact_watermark=self.compact_watermark,
        )

    def memory_bytes(self) -> int:
        """The base payload plus the resident memtable and materialised rows."""
        memo = sum(r.nbytes for r in self._rows.values())
        return int(self.segments[0].memory_bytes()) + int(
            self.memtable.memory_bytes()
        ) + int(memo)

    def __repr__(self) -> str:
        return (
            f"LsmStore(n={self.num_nodes}, m={self.num_edges}, "
            f"memtable={len(self.memtable)} "
            f"(+{self.memtable.tombstones} tombstones), "
            f"inner={self.inner!r}, "
            f"mem={human_bytes(self.memory_bytes())})"
        )

    # -- persistence (packed base) --------------------------------------
    def npz_payload(self, prefix: str = "") -> dict:
        """Flat ``.npz`` key/value payload (bit-packed base only).

        The base's payload goes under the ``segment0_`` prefix (with
        ``num_segments = 1``), plus the memtable as parallel
        ``mt_u``/``mt_v``/``mt_alive`` arrays, so one file round-trips
        the live store mid-stream.  :meth:`compact` packs the base when
        the inner kind is ``packed``.
        """
        from ..csr.packed import BitPackedCSR

        base = self.segments[0]
        if not isinstance(base, BitPackedCSR):
            raise ValidationError(
                f"only a packed base can be saved (the base is {type(base).__name__})"
            )
        us, vs, alive = self.memtable.entries()
        fields = {"num_nodes": self.num_nodes, "num_edges": self._num_edges, "num_segments": 1,
                  "inner": self.inner, "compact_watermark": self.compact_watermark,
                  "mt_u": us, "mt_v": vs, "mt_alive": alive}
        return {**{f"{prefix}{key}": value for key, value in fields.items()},
                **base.npz_payload(prefix=f"{prefix}segment0_")}

    @classmethod
    def from_npz_payload(cls, data, prefix: str = "") -> "LsmStore":
        """Rebuild a live store from the key/value payload of :meth:`npz_payload`."""
        from ..csr.packed import BitPackedCSR

        segments = int(data[f"{prefix}num_segments"])
        if segments != 1:
            raise ValidationError(
                f"holds {segments} segments; an lsm store file holds exactly one"
            )
        return cls(
            int(data[f"{prefix}num_nodes"]),
            [BitPackedCSR.from_npz_payload(data, prefix=f"{prefix}segment0_")],
            inner=str(data[f"{prefix}inner"]),
            compact_watermark=int(data[f"{prefix}compact_watermark"]),
            memtable=DeltaMemtable.from_entries(
                data[f"{prefix}mt_u"], data[f"{prefix}mt_v"], data[f"{prefix}mt_alive"]
            ),
            num_edges=int(data[f"{prefix}num_edges"]),
        )
