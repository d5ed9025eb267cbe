"""The five workloads.  Each composes its stack from public functions of
``repro``, drives it from one thread, times it from outside and hands
every output to the oracle in ``check.py``.

Sizes are stated for ``--scale 1/16`` (102,050 nodes, 1,913,910 edges);
request counts shrink with smaller scales so the smoke test stays short.
"""

from __future__ import annotations

import gc
import shutil
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from check import MixedOracle, ReadOracle
from inputs import INSERT, make_requests, pokec_standin
from noise import q25
from repro import (
    BitPackedCSR,
    ReorderedStore,
    ShardedStore,
    build_bitpacked_csr,
    build_csr,
    build_csr_serial,
    build_disk_store,
    compute_ordering,
    open_disk_store,
    open_server,
    open_store,
    prefix_sum_parallel,
    write_disk_store,
)
from repro.csr.builder import ensure_sorted
from repro.csr.io import write_edge_list_binary
from repro.obs import ObsConfig
from repro.serve import ManualClock, ServerConfig
from repro.shard import make_partitioner, shard_edge_list
from spans import Traced, TimedEngine, trace_server, trace_store

FULL_SCALE = 1 / 16
SCAN_CHUNK = 4096


def feed(server, requests) -> list:
    """Closed back-to-back feed: the next submit starts when the
    previous one returns; backpressure is the server's, then drain."""
    submit = server.submit
    slots = [submit(request) for request in requests]
    server.drain()
    return slots


def one_client(server, requests):
    """One client, closed loop: submit, then drain until the reply slot
    is ready.  Returns ``(slots, latency_ns)``."""
    submit, drain = server.submit, server.drain
    slots, latency = [], []
    for request in requests:
        t0 = perf_counter_ns()
        slot = submit(request)
        while not slot.ready:
            drain()
        latency.append(perf_counter_ns() - t0)
        slots.append(slot)
    return slots, np.asarray(latency, dtype=np.float64)


def poisson_arrivals_ns(rng, offered_qps: float, count: int) -> list:
    return np.cumsum(rng.exponential(1e9 / offered_qps, count)).tolist()


def open_loop(server, clock, arrivals_ns, requests):
    """Open loop on the virtual clock: every request is submitted at its
    scheduled arrival whatever the backlog, so its latency counts from
    when it was due (the generator is never late in virtual time).
    Returns ``(slots, start_ns)``."""
    start = clock()
    slots = []
    for due, request in zip(arrivals_ns, requests):
        due += start
        while (wake := server.next_wakeup_ns()) is not None and wake < due:
            clock.advance_to(wake)
            server.pump(wake)
        clock.advance_to(due)
        server.pump(due)
        slots.append(server.submit(request))
    server.drain()
    return slots, start


def virtual_figures(slots, start_ns: float) -> dict:
    """Achieved qps and p99 latency in virtual time (exact per seed)."""
    done = [s.request for s in slots if s.status == "done"]
    latency_ms = np.array([q.latency_ns for q in done]) / 1e6
    span_s = (max(q.complete_ns for q in done) - start_ns) / 1e9
    return {"virt_qps": len(done) / span_s,
            "virt_p99_ms": float(np.percentile(latency_ms, 99))}


class Workload:
    """Set-up, rounds and metrics of one workload.

    ``rec`` is the span recorder of a traced run (``None`` otherwise);
    ``rounds`` collects one dict of samples per round.
    """

    name = ""
    keys = "zipf"
    #: the separately timed parts a round's ``bulk_s`` is the sum of
    bulk_parts: tuple = ("bulk_s",)

    def __init__(self, seed: int, scale: float, workdir: Path, rec=None):
        self.seed, self.scale, self.workdir, self.rec = seed, scale, Path(workdir), rec
        self.attempted = self.failed = 0
        self.rounds: list[dict] = []
        self.now: dict = {}

    # -- helpers ---------------------------------------------------------
    def count(self, at_full_scale: int) -> int:
        return max(64, round(at_full_scale * min(1.0, self.scale / FULL_SCALE)))

    def graph(self):
        self.src, self.dst, self.n = pokec_standin(self.scale, self.seed)
        self.m = int(self.src.shape[0])

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed + r, 0xC0FFEE])

    def requests(self, rng, count: int, **mix):
        return make_requests(rng, count, self.n, (self.src, self.dst),
                             keys=self.keys, **mix)

    @contextmanager
    def stopwatch(self, key: str):
        """Add the block's wall seconds to this round's ``key``.  Inside
        (nested blocks included) the collector is off and spans count
        towards the round; outside, spans belong to no round."""
        outermost = gc.isenabled()
        if outermost:
            gc.disable()
            if self.rec is not None:
                self.rec.round = len(self.rounds)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.now[key] = self.now.get(key, 0.0) + perf_counter() - t0
            if outermost:
                gc.enable()
                if self.rec is not None:
                    self.rec.round = -1

    def call(self, fn, name: str, layer: str):
        """*fn*, recorded as a span of *layer* when tracing."""
        return fn if self.rec is None else self.rec.timed(fn, name, layer)

    def verdict(self, attempted_failed) -> None:
        self.attempted += attempted_failed[0]
        self.failed += attempted_failed[1]

    def run_round(self, r: int) -> None:
        self.now = {}
        self.round(r)
        self.rounds.append(self.now)
        gc.collect()

    def sample(self, key: str) -> list:
        """Per-round values of *key*, warm-up round dropped."""
        return [rnd[key] for rnd in self.rounds[1:]]

    def span_seconds(self, prefix: str, per: str = "name"):
        """Mean self seconds, calls and items per traced round of the
        spans whose name (or layer) starts with *prefix*."""
        rounds = range(1, len(self.rounds))
        picked = [v for k, v in self.rec.totals(per, rounds).items() if k.startswith(prefix)]
        return [sum(col) / len(rounds) for col in zip(*picked)] or [0.0, 0.0, 0.0]

    def close(self) -> None:
        pass

    # -- the common end-to-end figures ----------------------------------
    def bulk_seconds(self) -> float:
        """Lower quartile of the bulk phase, taken part by part: a burst
        hits one part of a round, and a long round has few repeats."""
        return sum(q25(self.sample(part)) for part in self.bulk_parts)

    def end_to_end(self) -> dict:
        return {
            "ops_per_s": self.bulk_ops / self.bulk_seconds(),
            "store_mb": self.store_bytes() / 1e6,
            "bits_per_edge": self.bits_per_edge(),
        }

    def record_latency(self, latency_ns) -> None:
        """This round's one-client p50 and p99, in µs."""
        p50, p99 = np.percentile(latency_ns, [50, 99]) / 1e3
        self.now["svc1_p50_us"], self.now["svc1_p99_us"] = float(p50), float(p99)


class BuildScan(Workload):
    """Construction, compression and a sequential scan: the paper's own
    artifact.  ``serve`` and ``query`` do no work here."""

    name = "build_scan"
    bulk_parts = ("pack_s", "build_s", "scan_s", "ooc_s")

    def setup(self) -> None:
        self.graph()
        self.oracle = ReadOracle(self.src, self.dst, self.n)
        self.edge_file = self.workdir / "edges.bin"
        write_edge_list_binary(self.edge_file, self.src, self.dst)
        self.bulk_ops = self.m
        self.reads = self.count(1_500)

    def round(self, r: int) -> None:
        src, dst, n = self.src, self.dst, self.n
        composed, ooc = self.workdir / f"composed-{r}", self.workdir / f"ooc-{r}"
        probes = self.rng(r).integers(0, n, self.reads).tolist()
        with self.stopwatch("pack_s"):  # (a) Algorithms 1-4
            packed = self.call(build_bitpacked_csr, "build_bitpacked_csr", "csr")(src, dst, n)
        with self.stopwatch("build_s"):  # (b) edge arrays -> verified queryable directory
            with self.stopwatch("build_csr_s"):
                graph = self.call(build_csr, "build_csr", "csr")(src, dst, n)
            with self.stopwatch("ordering_s"):
                perm = self.call(compute_ordering, "compute_ordering", "reorder")("degree", graph)
            with self.stopwatch("relabel_s"):
                relabeled = self.call(ensure_sorted, "relabel", "reorder")(perm[src], perm[dst])
            relabeled_packed = self.call(build_bitpacked_csr, "build_bitpacked_csr", "csr")(
                *relabeled, n)
            with self.stopwatch("write_s"):
                self.call(write_disk_store, "write_disk_store", "disk")(
                    relabeled_packed, composed, codecs="auto", ordering="degree", perm=perm
                ).close()
            with self.stopwatch("open_verify_s"):
                store = self.call(open_disk_store, "open_disk_store", "disk")(
                    composed, verify=True)
        disk = store.inner
        if self.rec is not None:
            store = trace_store(
                ReorderedStore(trace_store(disk, self.rec), store.perm, ordering="degree"),
                self.rec)
        with self.stopwatch("scan_s"):  # (c) whole graph, original ids
            scanned = [
                store.neighbors_batch(np.arange(lo, min(n, lo + SCAN_CHUNK), dtype=np.int64))
                for lo in range(0, n, SCAN_CHUNK)
            ]
        with self.stopwatch("ooc_s"):  # (d) out of core, from the edge file
            ooc_store = self.call(build_disk_store, "build_disk_store", "disk")(
                self.edge_file, ooc, num_nodes=n)
        self.now["bulk_s"] = sum(self.now[part] for part in self.bulk_parts)
        neighbors = store.neighbors
        with self.stopwatch("solo_s"):  # (e) point reads on the built store
            latency = []
            rows = []
            for u in probes:
                t0 = perf_counter_ns()
                rows.append(neighbors(u))
                latency.append(perf_counter_ns() - t0)
        self.record_latency(latency)
        if self.rec is not None:
            # two kernels timed directly, outside the round's own clocks
            with self.stopwatch("prefix_sum_s"):
                prefix_sum_parallel(np.diff(graph.indptr))
            with self.stopwatch("from_csr_s"):
                BitPackedCSR.from_csr(graph)
        # -- untimed: every store row-for-row equal to the reference
        ref = self.oracle.ref
        flat = np.concatenate([chunk[0] for chunk in scanned])
        lengths = np.concatenate([np.diff(chunk[1]) for chunk in scanned])
        self.verdict((1, int(not (np.array_equal(flat, ref.indices)
                                  and np.array_equal(lengths, np.diff(ref.indptr))))))
        self.verdict(self.oracle.check_store(packed))
        self.verdict(self.oracle.check_store(ooc_store))
        want = [ref.indices[ref.indptr[u]:ref.indptr[u + 1]] for u in probes]
        self.verdict((len(probes), sum(not np.array_equal(a, b) for a, b in zip(rows, want))))
        self.bits = float(store.bits_per_edge())
        self.resident = int(store.memory_bytes())
        self.on_disk = int(disk.disk_bytes())
        self.codecs = disk.codec_breakdown()
        disk.close()
        ooc_store.close()
        del store, scanned, rows, ooc_store, disk
        shutil.rmtree(composed)
        shutil.rmtree(ooc)

    def store_bytes(self) -> int:
        return self.resident

    def bits_per_edge(self) -> float:
        return self.bits

    def per_layer(self, cold_round: dict) -> dict:
        m = self.m
        out = {
            "csr.pack_edges_per_s": m / q25(self.sample("pack_s")),
            "csr.build_csr_s": q25(self.sample("build_csr_s")),
            # the first full-size build of the process: allocator and
            # import warm-up make it several times the steady cost
            "csr.first_call_s": cold_round["pack_s"],
            "csr.pack_s": q25(self.sample("from_csr_s")),
            "parallel.scan_s": q25(self.sample("prefix_sum_s")),
            "bitpack.bpe.disk_auto": self.bits,
            "reorder.ordering_s": q25(self.sample("ordering_s")),
            "reorder.relabel_s": q25(self.sample("relabel_s")),
            "reorder.scan_self_s": self.span_seconds("ReorderedStore.")[0],
            "disk.build_edges_per_s": m / q25(self.sample("build_s")),
            "disk.scan_edges_per_s": m / q25(self.sample("scan_s")),
            "disk.write_s": q25(self.sample("write_s")),
            "disk.open_verify_s": q25(self.sample("open_verify_s")),
            "disk.ooc_build_s": q25(self.sample("ooc_s")),
            "disk.bytes_on_disk": self.on_disk,
            "disk.scan_self_s": self.span_seconds("DiskStore.")[0],
        }
        for codec, entry in self.codecs.items():
            out[f"bitpack.codec_segments.{codec}"] = entry["segments"]
        return out


class ServeWorkload(Workload):
    """Shared shape of the three monolithic serving workloads."""

    cache_elements = 0
    bulk_at_full_scale = 0
    solo_at_full_scale = 0
    mix: dict = {}
    obs = None

    def setup(self) -> None:
        self.graph()
        self.oracle = self.make_oracle()
        store = self.build_store()
        self.server = open_server(ServerConfig(
            store=store, cache_elements=self.cache_elements, max_batch_size=256,
            max_wait_ns=500_000, queue_capacity=65536, policy="block", obs=self.obs,
        ))
        self.front = trace_server(self.server, self.rec)
        self.bulk_ops = self.count(self.bulk_at_full_scale)
        self.solo_ops = self.count(self.solo_at_full_scale)
        self.warm()
        self.cache_at_start = self.server.row_cache.stats()

    def warm(self) -> None:
        pass

    def make_oracle(self):
        return ReadOracle(self.src, self.dst, self.n)

    def serve_counters(self) -> tuple:
        m = self.server.metrics
        return m.completed, m.batches, m.close_reasons.get("size", 0), m.duplicates_coalesced

    def bulk_feed(self, requests) -> list:
        """The back-to-back phase, with the serve layer's own counters
        taken around it (the one-client phase would swamp them with
        one-request batches)."""
        before = self.serve_counters()
        with self.stopwatch("bulk_s"):
            slots = feed(self.front, requests)
        self.now["feed_s"] = self.now["bulk_s"]
        for key, a, b in zip(("reads", "batches", "size_closed", "dup_coalesced"),
                             before, self.serve_counters()):
            self.now[key] = b - a
        return slots

    def round(self, r: int) -> None:
        rng = self.rng(r)
        bulk = self.requests(rng, self.bulk_ops, **self.mix)
        solo = self.requests(rng, self.solo_ops, **self.mix)
        slots = self.bulk_feed(bulk.requests)
        self.verdict(self.oracle.check_reads(bulk, slots))
        with self.stopwatch("solo_s"):
            slots, latency = one_client(self.front, solo.requests)
        self.record_latency(latency)
        self.verdict(self.oracle.check_reads(solo, slots))

    def store_bytes(self) -> int:
        return int(self.server.store.memory_bytes())

    def serve_layers(self) -> dict:
        """Counters the serve and query layers publish (per back-to-back
        feed; the cache's since set-up), plus self times per round."""
        reads, batches, size_closed, dups = (
            float(np.mean(self.sample(key)))
            for key in ("reads", "batches", "size_closed", "dup_coalesced"))
        cache, start = self.server.row_cache.stats(), self.cache_at_start
        hits, misses = cache.hits - start.hits, cache.misses - start.misses
        return {
            "serve.self_s": self.span_seconds("GraphQueryServer.")[0],
            "serve.batches": batches,
            "serve.mean_batch": reads / batches,
            "serve.dup_coalesced": dups,
            "serve.closed_by_size_frac": size_closed / batches,
            "query.kernel_self_s": self.span_seconds("kernel:")[0],
            "query.rowcache_self_s": self.span_seconds("RowCache.")[0],
            "query.rowcache_hit_rate": hits / (hits + misses),
            "query.rowcache_evictions": cache.evictions - start.evictions,
            "query.rowcache_invalidations": cache.invalidations - start.invalidations,
            "csr.decode_self_s": self.span_seconds("csr", per="layer")[0],
        }


class ServeHot(ServeWorkload):
    """Working set fits the program's cache: store decode does almost
    nothing; serve + query kernels + the RowCache hit path do the work."""

    name = "serve_hot"
    cache_elements = 4_000_000
    bulk_at_full_scale = 100_000
    solo_at_full_scale = 5_000

    def build_store(self):
        self.packed = build_bitpacked_csr(self.src, self.dst, self.n)
        return trace_store(self.packed, self.rec)

    def warm(self) -> None:
        cache = self.server.store  # every row: 1.91M elements fit in 4.0M
        for lo in range(0, self.n, SCAN_CHUNK):
            cache.neighbors_batch(np.arange(lo, min(self.n, lo + SCAN_CHUNK), dtype=np.int64))

    def bits_per_edge(self) -> float:
        return float(self.packed.bits_per_edge())

    def per_layer(self, cold_round: dict) -> dict:
        return {**self.serve_layers(), "bitpack.bpe.packed": self.bits_per_edge()}


class ServeCold(ServeWorkload):
    """Working set far larger than the cache (50k of 1.91M elements),
    uniform keys: shard scatter, reorder id translation, disk mmap and
    bitpack decode do most of the work."""

    name = "serve_cold"
    keys = "uniform"
    cache_elements = 50_000
    bulk_at_full_scale = 30_000
    solo_at_full_scale = 1_500

    def build_store(self):
        src, dst, n, rec = self.src, self.dst, self.n, self.rec
        part = make_partitioner("range", 4, src, n)
        self.disks, shards = [], []
        for k, (s_src, s_dst) in enumerate(shard_edge_list(src, dst, part)):
            perm = compute_ordering("degree", build_csr_serial(s_src, s_dst, n))
            packed = build_bitpacked_csr(*ensure_sorted(perm[s_src], perm[s_dst]), n)
            path = self.workdir / f"shard-{k}"
            write_disk_store(packed, path, codecs="auto", ordering="degree", perm=perm).close()
            store = open_disk_store(path, verify=True)
            self.disks.append(store.inner)
            if rec is not None:
                store = ReorderedStore(trace_store(store.inner, rec), store.perm,
                                       ordering="degree")
            shards.append(trace_store(store, rec))
        self.sharded = ShardedStore(part, shards)
        return trace_store(self.sharded, rec)

    def bits_per_edge(self) -> float:
        return 8.0 * sum(d.disk_bytes() for d in self.disks) / self.m

    def close(self) -> None:
        for disk in self.disks:
            disk.close()

    def per_layer(self, cold_round: dict) -> dict:
        disk_s, disk_calls, disk_rows = self.span_seconds("DiskStore.")
        scatters = self.rec.totals("name", range(len(self.rounds)))[
            "ShardedStore.neighbors_batch"][1]
        return {
            **self.serve_layers(),
            "bitpack.bpe.disk_auto": self.bits_per_edge(),
            "reorder.self_s": self.span_seconds("ReorderedStore.")[0],
            "disk.self_s": disk_s,
            "disk.calls": disk_calls,
            "disk.rows_decoded": disk_rows,
            "disk.bytes_on_disk": sum(d.disk_bytes() for d in self.disks),
            "shard.self_s": self.span_seconds("ShardedStore.")[0],
            "shard.calls": self.span_seconds("ShardedStore.neighbors_batch")[1],
            "shard.shards_per_call": float(self.sharded.scatter_counts().sum()) / scatters,
        }


class ServeMixed(ServeWorkload):
    """10% writes beside the reads, on an LSM over the compact codec:
    cache invalidation, dirty-row merge and one compaction per round
    (stated flush policy: the harness compacts once, between the feed
    and the one-client phase, so every round spans one memtable cycle)."""

    name = "serve_mixed"
    bulk_parts = ("feed_s", "compact_s")
    cache_elements = 200_000
    bulk_at_full_scale = 25_000
    solo_at_full_scale = 1_500
    mix = {"write_fraction": 0.10, "delete_fraction": 0.20}

    def make_oracle(self):
        return MixedOracle(self.src, self.dst, self.n)

    def build_store(self):
        self.lsm = open_store("lsm", self.src, self.dst, self.n,
                              inner="compact", compact_watermark=0)
        self.retrace_segments()
        self.lsm_view = trace_store(self.lsm, self.rec)
        self.memtable_peak = 0
        return self.lsm_view

    def retrace_segments(self) -> None:
        """Compaction swaps in a fresh segment: interpose on it again."""
        if self.rec is not None:
            self.lsm.segments = [trace_store(s, self.rec) for s in self.lsm.segments]

    def round(self, r: int) -> None:
        rng = self.rng(r)
        bulk = self.requests(rng, self.bulk_ops, **self.mix)
        solo = self.requests(rng, self.solo_ops, **self.mix)
        slots = self.bulk_feed(bulk.requests)
        self.memtable_peak = max(self.memtable_peak, self.lsm.stats().memtable_edges)
        with self.stopwatch("compact_s"):
            self.lsm_view.compact()
        self.now["bulk_s"] += self.now["compact_s"]  # the round's one compaction
        self.retrace_segments()
        self.verdict(self.oracle.check_phase(bulk, slots))
        self.verdict(self.oracle.check_store(self.lsm))
        with self.stopwatch("solo_s"):
            slots, latency = one_client(self.front, solo.requests)
        is_write = solo.kind >= INSERT
        self.record_latency(latency[~is_write])
        self.now["write_p50_us"] = float(np.median(latency[is_write])) / 1e3 if is_write.any() else 0.0
        self.verdict(self.oracle.check_phase(solo, slots))

    def bits_per_edge(self) -> float:
        return float(sum(s.bits_per_edge() * s.num_edges for s in self.lsm.segments)
                     / max(1, sum(s.num_edges for s in self.lsm.segments)))

    def per_layer(self, cold_round: dict) -> dict:
        stats = self.lsm.stats()
        writes = stats.inserts + stats.deletes + stats.write_noops
        write_s = (self.span_seconds("LsmStore.insert_edge")[0]
                   + self.span_seconds("LsmStore.delete_edge")[0])
        compact_s = self.span_seconds("LsmStore.compact")[0]
        return {
            **self.serve_layers(),
            "bitpack.bpe.compact": self.bits_per_edge(),
            "lsm.read_self_s": self.span_seconds("LsmStore.")[0] - write_s - compact_s,
            "lsm.write_self_s": write_s,
            "lsm.compact_s": q25(self.sample("compact_s")),
            "lsm.memtable_edges_peak": self.memtable_peak,
            "lsm.write_noop_frac": stats.write_noops / max(1, writes),
            "lsm.write_p50_us": q25(self.sample("write_p50_us")),
        }


class Cluster4x2(Workload):
    """The only path through ``cluster.router`` / ``worker``: open loop
    at fixed offered rates in virtual time (the tail is exact), plus the
    router's own wall-clock cost, which ``serve_*`` never executes."""

    name = "cluster_4x2"
    bulk_parts = ("virt_qps_s", "virt_p99_ms_s")
    workers, replicas = 8, 2
    over_capacity_qps = 500_000.0
    below_capacity_qps = 150_000.0

    def setup(self) -> None:
        self.graph()
        self.oracle = ReadOracle(self.src, self.dst, self.n)
        self.clock = ManualClock()
        self.router = self.open_router(self.workers, self.replicas, self.clock)
        self.front = self.router
        if self.rec is not None:
            self.trace_router()
        self.open_ops = self.count(20_000)
        self.solo_ops = self.count(1_500)
        self.bulk_ops = 2 * self.open_ops

    def open_router(self, workers: int, replicas: int, clock):
        return open_server(ServerConfig(
            store_kind="packed", edges=(self.src, self.dst, self.n), workers=workers,
            replicas=replicas, cluster=True, max_batch_size=64, service="simulated",
        ), clock=clock)

    def trace_router(self) -> None:
        rec, router = self.rec, self.router
        for worker in router.workers:
            worker.server.engine = TimedEngine(worker.server.engine, rec)
        proxies = [Traced(w, "serve", rec, calls=("serve",)) for w in router.workers]
        router.workers = proxies
        router.by_shard = {
            s: [p for p in proxies if p.shard_id == s] for s in router.by_shard
        }
        self.front = Traced(router, "cluster", rec,
                            calls=("submit", "pump", "drain", "next_wakeup_ns"))

    def round(self, r: int) -> None:
        rng = self.rng(r)
        over = self.requests(rng, self.open_ops)
        below = self.requests(rng, self.open_ops)
        solo = self.requests(rng, self.solo_ops)
        for batch, offered_qps, figure in (
            (over, self.over_capacity_qps, "virt_qps"),
            (below, self.below_capacity_qps, "virt_p99_ms"),
        ):
            arrivals = poisson_arrivals_ns(rng, offered_qps, len(batch))
            with self.stopwatch(f"{figure}_s"):
                slots, start = open_loop(self.front, self.clock, arrivals, batch.requests)
            self.now[figure] = virtual_figures(slots, start)[figure]
            self.verdict(self.oracle.check_reads(batch, slots))
        self.now["bulk_s"] = sum(self.now[part] for part in self.bulk_parts)
        with self.stopwatch("solo_s"):
            slots, latency = one_client(self.front, solo.requests)
        self.record_latency(latency)
        self.verdict(self.oracle.check_reads(solo, slots))

    def shard_stores(self):
        seen = {id(w.server.store): w.server.store for w in self.router.workers}
        return list(seen.values())  # replicas of a shard share one store

    def store_bytes(self) -> int:
        return sum(int(s.memory_bytes()) for s in self.shard_stores())

    def bits_per_edge(self) -> float:
        return float(sum(s.bits_per_edge() * s.num_edges for s in self.shard_stores()) / self.m)

    def scaling(self, workers: int) -> float:
        """Achieved virtual qps of a *workers* x 1 cluster, over capacity."""
        clock = ManualClock()
        router = self.open_router(workers, 1, clock)
        rng = self.rng(0)
        batch = self.requests(rng, self.open_ops)
        arrivals = poisson_arrivals_ns(rng, self.over_capacity_qps, len(batch))
        slots, start = open_loop(router, clock, arrivals, batch.requests)
        self.verdict(self.oracle.check_reads(batch, slots))
        return virtual_figures(slots, start)["virt_qps"]

    def per_layer(self, cold_round: dict) -> dict:
        stats = self.router.cluster_stats()
        snap = self.router.snapshot()
        one, two = self.scaling(1), self.scaling(2)
        return {
            "cluster.router_self_s": self.span_seconds("cluster", per="layer")[0],
            "cluster.worker_serve_s": sum(self.span_seconds(layer, per="layer")[0]
                                          for layer in ("serve", "query", "csr")),
            "cluster.subrequests_per_request": stats.subs_dispatched / max(1, snap.completed),
            "cluster.virt_qps": float(np.median(self.sample("virt_qps"))),
            "cluster.virt_p99_ms": float(np.median(self.sample("virt_p99_ms"))),
            "cluster.virt_qps.1x1": one,
            "cluster.virt_qps.2x1": two,
            "cluster.scale_1_to_2": two / one,
            "serve.self_s": self.span_seconds("serve", per="layer")[0],
            "query.kernel_self_s": self.span_seconds("kernel:")[0],
            "csr.decode_self_s": self.span_seconds("csr", per="layer")[0],
            "bitpack.bpe.packed": self.bits_per_edge(),
        }


WORKLOADS = {w.name: w for w in (BuildScan, ServeHot, ServeCold, ServeMixed, Cluster4x2)}


def obs_sampled_rate(seed: int, scale: float, workdir: Path, rounds: int):
    """``serve_hot`` feed rate (requests/s) with the program's own tracer
    on at ``ObsConfig(sample_every=16)``; the caller divides it by the
    rate of the same rounds with tracing off.  Also ``(attempted, failed)``."""
    hot = ServeHot(seed, scale, workdir)
    hot.obs = ObsConfig(sample_every=16)
    hot.setup()
    for r in range(rounds):
        hot.run_round(r)
    return hot.bulk_ops / hot.bulk_seconds(), hot.attempted, hot.failed
