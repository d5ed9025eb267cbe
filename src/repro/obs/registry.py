"""The metrics registry: one pull-based whole-system view.

Every layer of the stack keeps its own stats object
(:class:`~repro.serve.metrics.ServeMetrics`,
:class:`~repro.query.rowcache.RowCacheStats`,
:class:`~repro.serve.admission.AdmissionStats`,
:class:`~repro.lsm.LsmStats`, the cluster's per-worker reports), and
those snapshot dataclasses are the **one** stats mechanism:
:class:`MetricsRegistry` holds no instruments of its own.  Layers
register as **sources** (zero-argument callables returning their
current snapshot, wired for a serving front-end by
:func:`register_server`) and :meth:`MetricsRegistry.snapshot` pulls
them all at once into a single JSON-safe dict through
:func:`to_jsonable` — the same conversion behind the CLI's ``--json``
outputs, so ``info``, ``serve-bench --json``, ``trace --json`` and
registry snapshots speak one schema.  Pull-based means registration
costs nothing on the hot path: work happens only when somebody asks
for the view.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ValidationError
from ..utils import require

__all__ = ["MetricsRegistry", "to_jsonable", "register_server"]


def to_jsonable(value):
    """Recursively convert *value* into JSON-serialisable Python.

    Handles dataclasses (by field), numpy scalars and arrays, mappings
    (keys coerced to ``str``), sequences, and objects exposing
    ``to_dict``; everything else must already be JSON-safe.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_jsonable(to_dict())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in value]
    return value


class MetricsRegistry:
    """Pull-based stat sources behind one ``snapshot()``.

    One registry fronts one serving process: the server (or router)
    registers its existing stats objects as sources at construction,
    and :meth:`snapshot` renders everything as one nested JSON-safe
    dict — the whole-system view the CLI ``--json`` surfaces share.
    """

    def __init__(self):
        self._sources: dict[str, object] = {}

    def register_source(self, name: str, fn) -> None:
        """Register a zero-argument snapshot callable under *name*.

        The callable is invoked (and its result made JSON-safe) on
        every :meth:`snapshot`; returning ``None`` omits the entry, so
        sources for optional layers (a row cache that may not be
        wired) can register unconditionally.
        """
        require(callable(fn), "a metrics source must be callable")
        if name in self._sources:
            raise ValidationError(
                f"metrics source {name!r} is already registered"
            )
        self._sources[name] = fn

    def snapshot(self) -> dict:
        """The whole-system view: every source, pulled now."""
        out: dict = {}
        for name, fn in sorted(self._sources.items()):
            value = fn()
            if value is not None:
                out[name] = to_jsonable(value)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry(sources={len(self._sources)})"


def register_server(registry, server, *, prefix: str = "server") -> None:
    """Register a serving front-end's stats surfaces as registry sources.

    Duck-typed over both :class:`~repro.serve.server.GraphQueryServer`
    and the cluster :class:`~repro.cluster.Router`: always registers
    ``{prefix}.serve`` (the :meth:`snapshot` serve metrics), plus
    ``{prefix}.cache`` / ``{prefix}.cluster`` / ``{prefix}.trace``
    when the front-end exposes a row cache, cluster stats, or an
    enabled tracer.  Sources returning ``None`` are omitted from
    snapshots, so optional layers cost nothing while absent.
    """
    registry.register_source(f"{prefix}.serve", lambda: server.snapshot())
    if hasattr(server, "row_cache"):
        registry.register_source(
            f"{prefix}.cache",
            lambda: (server.row_cache.stats()
                     if server.row_cache is not None else None),
        )
    if hasattr(server, "cluster_stats"):
        registry.register_source(
            f"{prefix}.cluster", lambda: server.cluster_stats()
        )
    tracer = getattr(server, "tracer", None)
    if tracer is not None and tracer.enabled:
        registry.register_source(
            f"{prefix}.trace",
            lambda: {"finished_spans": len(tracer.spans()),
                     "dropped_spans": tracer.dropped,
                     "sample_every": tracer.config.sample_every},
        )
