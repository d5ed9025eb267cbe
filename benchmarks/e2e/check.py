"""Correctness oracle.  Runs outside every timed region, every round.

Each ``check_*`` returns ``(attempted, failed)``.  A reply that was
rejected, shed or failed counts as failed, and so does a wrong answer.
"""

from __future__ import annotations

import numpy as np

from inputs import EDGE, INSERT, NEIGHBORS
from repro import QueryEngine, open_store


def _has(row, v: int) -> bool:
    pos = int(np.searchsorted(row, v))
    return pos < row.shape[0] and int(row[pos]) == v


def _same_rows(replies, expected) -> int:
    """Mismatches between reply rows and expected rows.  A cache hit
    hands the same array object to many requests: each is compared once."""
    bad = 0
    seen = {}
    for got, want in zip(replies, expected):
        if seen.get(id(want)) is got:
            continue
        if not np.array_equal(got, want):
            bad += 1
        seen[id(want)] = got
    return bad


class ReadOracle:
    """Read replies must equal ``QueryEngine`` over a ``csr-serial``
    reference built from the same edges."""

    def __init__(self, src, dst, n: int):
        self.ref = open_store("csr-serial", src, dst, n)
        self.engine = QueryEngine(self.ref)

    def check_reads(self, batch, slots) -> tuple[int, int]:
        done = np.array([s.status == "done" for s in slots], dtype=bool)
        failed = int((~done).sum())
        idx = np.flatnonzero((batch.kind == NEIGHBORS) & done)
        if idx.size:
            uniq, inverse = np.unique(batch.u[idx], return_inverse=True)
            rows = self.engine.neighbors(uniq)
            failed += _same_rows(
                [slots[i].result() for i in idx.tolist()],
                [rows[j] for j in inverse.tolist()],
            )
        idx = np.flatnonzero((batch.kind == EDGE) & done)
        if idx.size:
            want = self.engine.has_edges(
                np.stack([batch.u[idx], batch.v[idx]], axis=1)
            )
            got = np.array([bool(slots[i].result()) for i in idx.tolist()])
            failed += int((want != got).sum())
        return len(slots), failed

    def check_store(self, store, chunk: int = 4096) -> tuple[int, int]:
        """*store* must be row-for-row equal to the reference CSR."""
        n = self.ref.num_nodes
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            flat, offs = store.neighbors_batch(np.arange(lo, hi, dtype=np.int64))
            base = int(self.ref.indptr[lo])
            if not (
                np.array_equal(offs, self.ref.indptr[lo : hi + 1] - base)
                and np.array_equal(flat, self.ref.indices[base : int(self.ref.indptr[hi])])
            ):
                return 1, 1
        return 1, 0


class MixedOracle:
    """Dict-of-rows replay of a read/write stream in submit order.

    Writes apply at submit; reads are coalesced and answered later, so
    a read may see writes submitted after it.  For each read the window
    is [its submit, its completion]: it must match the oracle's state
    exactly when its row was not written inside the window, and one of
    the states inside the window otherwise.
    """

    def __init__(self, src, dst, n: int):
        key = np.unique(np.asarray(src) * n + np.asarray(dst))  # the LSM holds a set
        ref = open_store("csr-serial", key // n, key % n, n)
        self.n = n
        self.indptr = np.asarray(ref.indptr, dtype=np.int64)
        self.indices = np.asarray(ref.indices, dtype=np.int64)
        self.rows: dict[int, np.ndarray] = {}  # rows written since the last rebase

    def row(self, u: int) -> np.ndarray:
        row = self.rows.get(u)
        if row is None:
            row = self.indices[self.indptr[u] : self.indptr[u + 1]]
        return row

    def check_phase(self, batch, slots) -> tuple[int, int]:
        failed = 0
        kinds, us, vs = batch.kind.tolist(), batch.u.tolist(), batch.v.tolist()
        # pass 1: replay the writes; versions[u] = [(submit index,
        # enqueue stamp, row after)], led by the row before the phase
        versions: dict[int, list] = {}
        for i, (kind, u, v) in enumerate(zip(kinds, us, vs)):
            if kind < INSERT:
                continue
            slot = slots[i]
            row = self.row(u)
            present = _has(row, v)
            applied = (not present) if kind == INSERT else present
            if slot.status != "done" or bool(slot.result()) != applied:
                failed += 1
            if applied:
                pos = int(np.searchsorted(row, v))
                new = np.insert(row, pos, v) if kind == INSERT else np.delete(row, pos)
                versions.setdefault(u, [(-1, 0.0, row)]).append(
                    (i, slot.request.enqueue_ns, new)
                )
                self.rows[u] = new
        # pass 2: every read against the states inside its window
        seen = {}
        for i, (kind, u, v) in enumerate(zip(kinds, us, vs)):
            if kind >= INSERT:
                continue
            slot = slots[i]
            if slot.status != "done":
                failed += 1
                continue
            got = slot.result()
            history = versions.get(u)
            if history is None:
                states = (self.row(u),)
            else:
                done_ns = slot.request.complete_ns
                first = max(k for k, ver in enumerate(history) if ver[0] < i)
                states = [history[first][2]] + [
                    ver[2] for ver in history[first + 1 :] if ver[1] <= done_ns
                ]
            if kind == NEIGHBORS:
                if history is None and seen.get(u) is got:
                    continue
                seen[u] = got
                ok = any(np.array_equal(got, state) for state in states)
            else:
                ok = any(bool(got) == _has(state, v) for state in states)
            failed += not ok
        return len(slots), failed

    def check_store(self, store) -> tuple[int, int]:
        """The store's full logical edge set must equal the oracle's;
        the oracle then rebases onto it (called after each compaction)."""
        pieces, prev = [], 0
        degree = np.diff(self.indptr)
        for u in sorted(self.rows):
            pieces += [self.indices[self.indptr[prev] : self.indptr[u]], self.rows[u]]
            degree[u] = self.rows[u].shape[0]
            prev = u + 1
        pieces.append(self.indices[self.indptr[prev] :])
        indices = np.concatenate(pieces)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        flat, offs = store.neighbors_batch(np.arange(self.n, dtype=np.int64))
        same = np.array_equal(offs, indptr) and np.array_equal(flat, indices)
        self.indptr, self.indices = indptr, indices
        self.rows.clear()
        return 1, int(not same)
