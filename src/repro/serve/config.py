"""`ServerConfig` + `open_server` — one typed construction path.

The serve surface has grown a long tail of knobs (store kind, cache
elements, coalescer bounds, admission policy, write watermark, and now
cluster fan-out, replication, hedging, and tenant quotas), and every
call site — the CLI, the benches, the tests — used to thread them as
ad-hoc kwargs through :class:`~repro.serve.server.GraphQueryServer`.
This module gives serving the same registry-style construction API
that :func:`repro.open_store` gave stores:

    config = ServerConfig(store_kind="packed", edges=(src, dst, n),
                          max_batch_size=256, cache_elements=100_000)
    server = open_server(config)

    cluster = open_server(ServerConfig(
        store=packed, workers=4, replicas=2,
        hedge_percentile=75.0, tenant_quotas={"free": 64},
    ), clock=ManualClock())

:func:`open_server` returns a plain :class:`GraphQueryServer` for
single-worker configs and a :class:`~repro.cluster.Router` fronting
replicated :class:`~repro.cluster.ShardWorker` loops whenever any
cluster option is set (``workers``/``replicas`` > 1, tenant quotas, or
a hedge percentile).  This is the **only** construction path — the
CLI's ``serve-bench`` and ``trace`` come through it like every bench
and test: the old ``GraphQueryServer(store, **kwargs)`` form
(deprecated one release ago) now raises a one-line
:class:`~repro.errors.ReproError` pointing here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from ..errors import ValidationError
from ..parallel.machine import Executor
from ..utils import require
from .admission import POLICIES

__all__ = ["ServerConfig", "open_server"]

#: Recognised worker service-time sources for cluster serving.
SERVICE_KINDS = ("simulated", "wall")


@dataclass(frozen=True)
class ServerConfig:
    """Every serving knob, typed and validated in one place.

    Store resolution (exactly one of the three):

    ``store``
        A ready :class:`~repro.query.stores.GraphStore` object.
    ``store_path``
        A store file / disk directory, loaded through
        :func:`repro.stores.load_store`.
    ``store_kind`` + ``edges``
        Build via :func:`repro.open_store` from ``edges=(src, dst, n)``
        with ``store_opts`` passed through to the kind's builder.

    Serving knobs: ``executor``, ``cache_elements``, coalescer bounds
    (``max_batch_size`` / ``max_wait_ns``), admission bounds
    (``queue_capacity`` / ``policy``), the LSM ``write_watermark``
    (> 0 serves a read-only store through
    :func:`~repro.lsm.writable_overlay`, compacting at that memtable
    size), and ``job_slice_steps`` — how many analytics-stepper slices
    each :meth:`~repro.serve.server.GraphQueryServer.pump` grants the
    front queued job before returning to point traffic (higher
    finishes jobs sooner at the cost of serve tail latency).

    Cluster options (any of them switches :func:`open_server` to the
    router): ``workers`` total worker loops, ``replicas`` per shard
    (``workers`` must divide evenly; shards = workers // replicas),
    ``partitioner`` routing, ``hedge_percentile`` (service-time
    percentile after which a straggling scatter sub-request is hedged
    to another replica; ``None`` disables), ``hedge_min_samples``
    warmup, ``service`` time source (``"simulated"`` — deterministic,
    charged on each worker's :class:`~repro.parallel.SimulatedMachine`
    group — or ``"wall"``), and ``tenant_quotas`` (max in-flight requests per
    tenant; missing tenants are unlimited).  ``cluster`` forces the
    router on (``True``, even with one worker — the scaling bench's
    1-worker baseline) or off (``False``).

    Observability: ``obs`` accepts an :class:`~repro.obs.ObsConfig`
    (or ``True`` for the defaults / ``False``/``None`` for off) and
    makes the server — or the router and every shard worker under it,
    sharing one tracer — emit sampled request/kernel spans readable
    via ``server.tracer`` and the CLI ``trace`` subcommand.
    """

    store: Any = None
    store_path: str | Path | None = None
    store_kind: str | None = None
    edges: tuple | None = None
    store_opts: Mapping[str, Any] = field(default_factory=dict)
    executor: Executor | None = None
    cache_elements: int = 0
    max_batch_size: int = 64
    max_wait_ns: float = 1_000_000.0
    queue_capacity: int = 4096
    policy: str = "reject"
    write_watermark: int = 0
    job_slice_steps: int = 1
    workers: int = 1
    replicas: int = 1
    partitioner: str = "range"
    hedge_percentile: float | None = None
    hedge_min_samples: int = 16
    service: str = "simulated"
    tenant_quotas: Mapping[str, int] = field(default_factory=dict)
    cluster: bool | None = None
    obs: Any = None

    def __post_init__(self):
        from ..obs import ObsConfig

        if self.obs is True:
            object.__setattr__(self, "obs", ObsConfig())
        elif self.obs is False:
            object.__setattr__(self, "obs", None)
        if self.obs is not None and not isinstance(self.obs, ObsConfig):
            raise ValidationError(
                f"obs= takes an ObsConfig (or True/False), got "
                f"{type(self.obs).__name__}"
            )
        require(self.max_batch_size >= 1, "max_batch_size must be >= 1")
        require(self.max_wait_ns >= 0, "max_wait_ns must be non-negative")
        require(self.queue_capacity >= 1, "queue_capacity must be >= 1")
        require(self.policy in POLICIES,
                f"unknown admission policy {self.policy!r}")
        require(self.cache_elements >= 0, "cache_elements must be >= 0")
        require(self.write_watermark >= 0, "write_watermark must be >= 0")
        require(self.job_slice_steps >= 1, "job_slice_steps must be >= 1")
        require(self.workers >= 1, "workers must be >= 1")
        require(self.replicas >= 1, "replicas must be >= 1")
        if self.workers % self.replicas:
            raise ValidationError(
                f"workers ({self.workers}) must be a multiple of replicas "
                f"({self.replicas}) — every shard gets the same replica count"
            )
        if self.hedge_percentile is not None and not (
            0.0 < float(self.hedge_percentile) < 100.0
        ):
            raise ValidationError(
                f"hedge_percentile must be in (0, 100), got "
                f"{self.hedge_percentile!r}"
            )
        require(self.hedge_min_samples >= 1, "hedge_min_samples must be >= 1")
        if self.service not in SERVICE_KINDS:
            raise ValidationError(
                f"unknown service time source {self.service!r} "
                f"(known: {', '.join(SERVICE_KINDS)})"
            )
        for tenant, quota in dict(self.tenant_quotas).items():
            if int(quota) < 1:
                raise ValidationError(
                    f"tenant quota for {tenant!r} must be >= 1, got {quota}"
                )
        sources = [
            self.store is not None,
            self.store_path is not None,
            self.store_kind is not None or self.edges is not None,
        ]
        if sum(sources) > 1:
            raise ValidationError(
                "pass exactly one store source: store=, store_path=, or "
                "store_kind= with edges=(src, dst, n)"
            )
        if (self.store_kind is None) != (self.edges is None):
            raise ValidationError(
                "store_kind= and edges=(src, dst, n) go together"
            )

    @property
    def shards(self) -> int:
        """Shard fan-out implied by the worker/replica layout."""
        return self.workers // self.replicas

    @property
    def wants_cluster(self) -> bool:
        """Whether this config asks for router-fronted serving."""
        if self.cluster is not None:
            return bool(self.cluster)
        return bool(
            self.workers > 1
            or self.replicas > 1
            or self.tenant_quotas
            or self.hedge_percentile is not None
        )

    def with_overrides(self, **changes) -> "ServerConfig":
        """A copy with *changes* applied (re-validated)."""
        return replace(self, **changes)

    def resolve_store(self):
        """Materialise the configured store (build, load, or pass through)."""
        store = self.store
        if store is None and self.store_path is not None:
            from ..stores import load_store

            store = load_store(self.store_path)
        elif store is None and self.store_kind is not None:
            from ..stores import open_store

            src, dst, n = self.edges
            opts = dict(self.store_opts)
            if self.executor is not None:
                opts.setdefault("executor", self.executor)
            store = open_store(self.store_kind, src, dst, int(n), **opts)
        if store is None:
            raise ValidationError(
                "ServerConfig names no store (store=, store_path=, or "
                "store_kind= with edges=)"
            )
        if self.write_watermark > 0:
            from ..lsm import LsmStore, writable_overlay
            from ..query.capabilities import capabilities

            # a read-only store under a write watermark gets the
            # standard mutable overlay, same as `query --writes`
            if isinstance(store, LsmStore) or not capabilities(store).supports_writes:
                store = writable_overlay(store, self.write_watermark)
        return store


def open_server(config: ServerConfig, *, clock=None):
    """Build the serving front-end a :class:`ServerConfig` describes.

    Returns a :class:`~repro.serve.server.GraphQueryServer` for
    single-worker configs, or a :class:`~repro.cluster.Router` fronting
    ``config.workers`` replicated shard workers when any cluster option
    is set (see :attr:`ServerConfig.wants_cluster`).  *clock* is the
    server's nanosecond clock; cluster serving runs in virtual time and
    defaults to a fresh :class:`~repro.serve.request.ManualClock`.
    """
    require(isinstance(config, ServerConfig),
            "open_server takes a ServerConfig (see repro.serve.ServerConfig)")
    if not config.wants_cluster:
        from .request import default_clock
        from .server import GraphQueryServer

        return GraphQueryServer(
            config.resolve_store(), config.executor,
            config=config, clock=clock or default_clock,
        )
    if config.write_watermark > 0:
        raise ValidationError(
            "cluster serving is read-only (write_watermark needs a "
            "single-worker server over an lsm store)"
        )
    from ..cluster.build import build_cluster

    return build_cluster(config, clock=clock)
