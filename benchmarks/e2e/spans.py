"""Outside-in tracing: every span is recorded by benchmark-owned code.

The program is not edited.  Layer boundaries are interposed when the
harness composes a stack: :class:`Traced` forwards every attribute to
the object it wraps and times exactly the ``GraphStore`` calls that
object really has (so ``repro.query.capabilities`` resolves as it would
without the proxy); :class:`TimedEngine` stands in for
``server.engine``.  Spans stay in memory (name, layer, start_ns, end_ns,
parent index, round, items) and are written by :meth:`Recorder.dump`
when the benchmark ends.  ``items`` is the length
of a batch call's key array (1 for scalar calls): work counted at the
boundary where it happens.

To add a per-layer counter without touching ``src/``: wrap the object
at the boundary in ``workloads.py`` with ``Traced(obj, "<layer>", rec)``
(add the method name to ``STORE_CALLS`` if it is not a GraphStore call),
then read ``rec.totals("layer", rounds)`` / ``rec.totals("name", rounds)``
for its self time, call count and items.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from repro.query import QueryEngine

#: the GraphStore surface (reads, writes, compaction) a proxy times
STORE_CALLS = (
    "neighbors", "neighbors_batch", "has_edge", "degree", "degrees",
    "insert_edge", "delete_edge", "compact",
)

#: module (= layer) that owns each store class
LAYER_OF = {
    "CSRGraph": "csr", "BitPackedCSR": "csr", "CompactStore": "csr",
    "DiskStore": "disk", "ReorderedStore": "reorder",
    "ShardedStore": "shard", "LsmStore": "lsm", "RowCache": "query",
}

CODE, START, END, PARENT, ROUND, ITEMS = range(6)
FIELDS = 6
CHUNK_SPANS = 1 << 20


class Recorder:
    """In-memory span log with a parent stack (one thread).

    Spans live in one flat ``array('q')`` that is allocated, and so
    faulted in, before any timed region: on this kind of VM first-touch
    page faults are dear, and a log that grew object by object made
    traced rounds up to twice as slow as untraced ones.
    """

    def __init__(self):
        self.buf = array("q", bytes(8 * FIELDS * CHUNK_SPANS))
        self.count = 0
        self.names: list[tuple[str, str]] = []  # code -> (name, layer)
        self.stack: list[int] = []
        self.round = -1

    def timed(self, fn, name: str, layer: str, sized: bool = False):
        """*fn* wrapped so each call records one span (*sized*: the
        span's ``items`` is the length of the first argument)."""
        code = len(self.names)
        self.names.append((name, layer))
        buf, stack = self.buf, self.stack

        def call(*args, **kwargs):
            # stamped first and last: a span contains its own recording
            # cost, so layer shares add up to the driver's wall time
            start = perf_counter_ns()
            index = self.count
            self.count = index + 1
            base = index * FIELDS
            if base == len(buf):
                buf.extend(bytes(8 * FIELDS * CHUNK_SPANS))
            buf[base] = code
            buf[base + START] = start
            buf[base + PARENT] = stack[-1] if stack else -1
            buf[base + ROUND] = self.round
            buf[base + ITEMS] = len(args[0]) if sized else 1
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                buf[base + END] = perf_counter_ns()

        return call

    def table(self) -> np.ndarray:
        """The spans as an ``(count, FIELDS)`` int64 array."""
        return np.frombuffer(self.buf, dtype=np.int64).reshape(-1, FIELDS)[: self.count]

    def totals(self, per: str, rounds) -> dict[str, tuple[float, int, int]]:
        """``{name or layer: (self seconds, calls, items)}`` over *rounds*.

        Self time is a span's duration minus the part its children
        cover; one thread runs everything, so children never overlap and
        their cover is the sum of their durations.
        """
        spans = self.table()
        duration = (spans[:, END] - spans[:, START]).astype(np.float64)
        child = spans[:, PARENT] >= 0
        self_ns = duration - np.bincount(
            spans[child, PARENT], weights=duration[child], minlength=len(spans))
        picked = np.isin(spans[:, ROUND], list(rounds))
        codes = spans[picked, CODE]
        size = len(self.names)
        seconds = np.bincount(codes, weights=self_ns[picked], minlength=size) / 1e9
        calls = np.bincount(codes, minlength=size)
        items = np.bincount(codes, weights=spans[picked, ITEMS], minlength=size)
        out: dict = defaultdict(lambda: [0.0, 0, 0])
        for code, key in enumerate(self.names):
            entry = out[key[0] if per == "name" else key[1]]
            entry[0] += float(seconds[code])
            entry[1] += int(calls[code])
            entry[2] += int(items[code])
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for code, start, end, parent, rnd, items in self.table().tolist():
                name, layer = self.names[code]
                fh.write(
                    f'{{"name": "{name}", "layer": "{layer}", "start_ns": {start}, '
                    f'"end_ns": {end}, "parent": {parent}, "round": {rnd}, "items": {items}}}\n'
                )


class Traced:
    """Attribute-forwarding proxy that times the calls in *calls*."""

    def __init__(self, inner, layer: str, rec: Recorder, calls=STORE_CALLS):
        object.__setattr__(self, "_inner", inner)
        prefix = type(inner).__name__
        for name in calls:
            fn = getattr(inner, name, None)
            if callable(fn):
                object.__setattr__(
                    self, name,
                    rec.timed(fn, f"{prefix}.{name}", layer,
                              sized=name == "neighbors_batch"),
                )

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __setattr__(self, name, value):
        setattr(self._inner, name, value)


def trace_store(store, rec: Recorder | None):
    """*store* behind a timing proxy of its own layer (or as is)."""
    if rec is None:
        return store
    return Traced(store, LAYER_OF[type(store).__name__], rec)


class TimedEngine:
    """Stand-in for ``server.engine``: kernel calls become ``query``
    spans and run against a proxied store, while ``.store`` stays the
    real object the server inspects (``isinstance(store, RowCache)``)."""

    def __init__(self, engine, rec: Recorder):
        self.store = engine.store
        self.executor = engine.executor
        inner = QueryEngine(trace_store(engine.store, rec), engine.executor)
        self.neighbors = rec.timed(inner.neighbors, "kernel:neighbors", "query")
        self.has_edges = rec.timed(inner.has_edges, "kernel:edges", "query")


def trace_server(server, rec: Recorder | None, layer: str = "serve"):
    """Span the driver-facing calls of a server (or router) and swap in
    the timing engine.  Returns the object the driver should call."""
    if rec is None:
        return server
    if hasattr(server, "engine"):
        server.engine = TimedEngine(server.engine, rec)
    return Traced(server, layer, rec, calls=("submit", "pump", "drain"))
