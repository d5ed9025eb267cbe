"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``generate`` — write a synthetic edge list (rmat / er / ba / standin).
* ``build`` — edge list file → bit-packed CSR ``.npz``, with the
  parallel pipeline of Section III on a simulated p-processor machine;
  ``--shards N --partitioner {range,hash}`` builds a sharded store
  (one sub-store per virtual processor group) instead.
* ``compact`` — re-encode an existing store through the compact
  pipeline (vertex reordering + adaptive per-segment edge codecs) and
  report the bits/edge before and after.
* ``info`` — inspect a store file: sizes, active ordering, and the
  per-segment codec breakdown.
* ``query`` — neighbours / edge existence against a store file,
  optionally through an LRU row cache (``--cache-elements``) and/or
  re-sharded in memory (``--shards N``).
* ``analyze`` — run a whole-graph analytics algorithm (bfs /
  pagerank / triangles) from :mod:`repro.algorithms` over a store on
  a simulated p-processor machine; ``--sweep 1,2,4`` prints the
  cost-model speed-up curve.
* ``bench`` — regenerate Table II or Figures 6-7 from the paper.
* ``serve-bench`` — coalesced vs single-request serving throughput on
  a synthetic open-loop workload (the :mod:`repro.serve` subsystem);
  ``--json`` emits the snapshots machine-readably.
* ``trace`` — serve a small traced workload (monolithic or clustered)
  and print where the time goes: per-request span trees, the
  layer/phase cost rollup, and folded flamegraph stacks
  (:mod:`repro.obs`); ``--json`` emits the raw spans.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from pathlib import Path

from .analysis.experiments import render_fig6, render_fig7, run_fig6, run_table2
from .csr.io import (
    edge_list_text_size,
    read_edge_list,
    read_edge_list_binary,
    write_edge_list,
    write_edge_list_binary,
)
from .csr.compact import CompactStore
from .csr.packed import BitPackedCSR
from .datasets import ba_edges, er_edges, rmat_edges, standin
from .disk import DiskStore
from .errors import ReproError
from .lsm import LsmStore
from .parallel import SerialExecutor, SimulatedMachine
from .reorder import ReorderedStore, available_orderings
from .shard import PARTITIONER_KINDS, ShardedStore
from .stores import load_store, open_store
from .utils import human_bytes

_BINARY_MAGIC = b"REPROEL1"

__all__ = ["main", "build_parser"]


def _add_compact_flags(cmd, *, order_default: str, codec_default) -> None:
    cmd.add_argument("--order", default=order_default,
                     help="vertex reordering applied before packing "
                     "(natural, degree, bfs, slashburn); queries still "
                     "answer in the original id space "
                     f"(default {order_default})")
    cmd.add_argument("--codec", default=codec_default,
                     help="adaptive per-segment edge codecs: 'auto' or a "
                     "comma list of fixed,varint,zeta2,zeta3,zeta4 "
                     "(implies the gap transform)")


def _check_compact_flags(args) -> None:
    """Fail fast with one-line errors for unknown codec/ordering names."""
    if args.codec is not None:
        from .bitpack.segcodec import resolve_codecs

        resolve_codecs(args.codec)
    if args.order != "natural" and args.order not in available_orderings():
        known = ", ".join(available_orderings())
        raise ReproError(f"unknown ordering '{args.order}' (known: {known})")


def _add_shard_flags(cmd) -> None:
    cmd.add_argument("--shards", type=int, default=1,
                     help="shard the store this many ways (1 = monolithic)")
    cmd.add_argument("--partitioner", choices=sorted(PARTITIONER_KINDS),
                     default="range",
                     help="shard routing: contiguous node ranges or splitmix64")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel compression and querying of massive social networks "
        "(IPPS 2023 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic edge list")
    gen.add_argument("kind", choices=["rmat", "er", "ba", "ws", "standin"])
    gen.add_argument("output", help="output text edge list path")
    gen.add_argument("--nodes", type=int, default=1 << 14,
                     help="node count (er/ba) or 2^scale is derived (rmat)")
    gen.add_argument("--edges", type=int, default=100_000)
    gen.add_argument("--name", default="pokec",
                     help="paper graph name for 'standin'")
    gen.add_argument("--scale", type=float, default=1 / 256,
                     help="fraction of paper edges for 'standin'")
    gen.add_argument("--seed", type=int, default=2023)
    gen.add_argument("--binary", action="store_true",
                     help="write the compact binary edge-list format "
                     "(streamable by 'build --format disk')")

    build = sub.add_parser("build",
                           help="edge list -> packed CSR (.npz or disk directory)")
    build.add_argument("input", help="text edge list (SNAP format) or binary "
                       "edge list from 'generate --binary'")
    build.add_argument("output", help="output .npz path (or directory with "
                       "--format disk)")
    build.add_argument("-p", "--processors", type=int, default=1,
                       help="simulated processor count (default 1)")
    build.add_argument("--gap", action="store_true", help="gap-encode rows")
    build.add_argument("--no-sort", action="store_true",
                       help="input is already sorted by source")
    build.add_argument("--format", choices=["npz", "disk"], default="npz",
                       help="npz: in-memory packed CSR file; disk: "
                       "memory-mapped store directory (built out of core "
                       "when the input is binary)")
    build.add_argument("--chunk-edges", type=int, default=1 << 20,
                       help="edges per streaming pass for the out-of-core "
                       "disk build")
    build.add_argument("--segment-bytes", type=int, default=None,
                       help="target payload bytes per disk segment file")
    _add_compact_flags(build, order_default="natural", codec_default=None)
    _add_shard_flags(build)

    comp = sub.add_parser(
        "compact",
        help="re-encode a store: vertex reordering + adaptive edge codecs",
    )
    comp.add_argument("input", help=".npz or disk directory from 'build'")
    comp.add_argument("output", help="output .npz path (or directory with "
                      "--format disk)")
    comp.add_argument("--format", choices=["npz", "disk"], default="npz")
    comp.add_argument("--segment-bytes", type=int, default=None,
                      help="target payload bytes per codec segment")
    _add_compact_flags(comp, order_default="degree", codec_default="auto")

    info = sub.add_parser("info", help="inspect a store (.npz or disk directory)")
    info.add_argument("input", help=".npz or disk directory from 'build'")
    info.add_argument("--json", action="store_true",
                      help="emit the store facts as JSON instead of text")

    query = sub.add_parser("query", help="query a store (.npz or disk directory)")
    query.add_argument("input", help=".npz or disk directory from 'build'")
    query.add_argument("--cache-elements", type=int, default=0,
                       help="wrap the store in an LRU row cache of this many "
                       "decoded elements and print its stats after the batch")
    query.add_argument("--writes", type=int, default=0,
                       help="apply this many seeded random edge writes through "
                       "a log-structured (lsm) overlay before querying, and "
                       "print the lsm stats")
    query.add_argument("--write-seed", type=int, default=2023,
                       help="seed for the random write stream")
    query.add_argument("--compact-watermark", type=int, default=0,
                       help="memtable entries that trigger auto-compaction "
                       "during the write stream (0 = off)")
    query.add_argument("--save", default=None,
                       help="persist the post-write lsm store to this .npz "
                       "(packed segments only)")
    _add_shard_flags(query)
    qsub = query.add_subparsers(dest="query_kind", required=True)
    qn = qsub.add_parser("neighbors", help="list a node's neighbours")
    qn.add_argument("nodes", type=int, nargs="+")
    qe = qsub.add_parser("edge", help="check edge existence")
    qe.add_argument("u", type=int)
    qe.add_argument("v", type=int)

    ana = sub.add_parser(
        "analyze",
        help="run a whole-graph analytics algorithm over a store")
    ana.add_argument("input", help=".npz or disk directory from 'build'")
    ana.add_argument("algorithm",
                     help="registered algorithm name (bfs, pagerank, "
                     "triangles, or anything registered in "
                     "repro.algorithms)")
    ana.add_argument("--source", type=int, default=None,
                     help="bfs: source node")
    ana.add_argument("--damping", type=float, default=None,
                     help="pagerank: damping factor")
    ana.add_argument("--tol", type=float, default=None,
                     help="pagerank: L1 convergence tolerance")
    ana.add_argument("--max-iter", type=int, default=None,
                     help="pagerank: bulk-synchronous sweep cap")
    ana.add_argument("--method", choices=["scan", "bisect"], default=None,
                     help="triangles: edge-existence probe method")
    ana.add_argument("-p", "--processors", type=int, default=1,
                     help="simulated processors the run is charged on")
    ana.add_argument("--sweep", default=None,
                     help="comma list of processor counts: print the "
                     "simulated speed-up curve (p=1 added if missing)")
    ana.add_argument("--top", type=int, default=10,
                     help="value entries to print (pagerank: top-k by rank)")
    _add_shard_flags(ana)

    bench = sub.add_parser("bench", help="regenerate a paper artifact")
    bench.add_argument("artifact", choices=["table2", "fig6", "fig7"])
    bench.add_argument("--scale", type=float, default=1 / 256)
    bench.add_argument("--min-edges", type=int, default=100_000)

    serve = sub.add_parser(
        "serve-bench",
        help="coalesced vs single-request serving throughput (repro.serve)",
    )
    serve.add_argument("--input", default=None,
                       help=".npz or disk directory to serve "
                       "(default: generate R-MAT)")
    serve.add_argument("--nodes", type=int, default=1 << 12,
                       help="generated graph nodes (ignored with --input)")
    serve.add_argument("--edges", type=int, default=60_000,
                       help="generated graph edges (ignored with --input)")
    serve.add_argument("--requests", type=int, default=10_000)
    serve.add_argument("--batch", type=int, default=256,
                       help="coalescer max batch size")
    serve.add_argument("--wait-us", type=float, default=200.0,
                       help="coalescer max wait window (microseconds)")
    serve.add_argument("--capacity", type=int, default=4096,
                       help="admission queue capacity")
    serve.add_argument("--policy", choices=["reject", "shed-oldest", "block"],
                       default="block")
    serve.add_argument("--workload", choices=["zipf", "uniform"], default="zipf")
    serve.add_argument("--skew", type=float, default=1.2)
    serve.add_argument("--edge-fraction", type=float, default=0.25)
    serve.add_argument("--cache-elements", type=int, default=0,
                       help="row-cache capacity on the serve path (0 = off)")
    serve.add_argument("--write-fraction", type=float, default=0.0,
                       help="share of requests that are edge writes; routes "
                       "the run through a log-structured (lsm) overlay")
    serve.add_argument("--compact-watermark", type=int, default=0,
                       help="lsm memtable entries that trigger compaction "
                       "mid-serve (0 = off; needs --write-fraction)")
    serve.add_argument("--seed", type=int, default=2023)
    serve.add_argument("--workers", type=int, default=1,
                       help="cluster worker loops; > 1 serves through the "
                       "replicated scatter-gather router (repro.cluster)")
    serve.add_argument("--replicas", type=int, default=1,
                       help="replica workers per shard (workers must be a "
                       "multiple; shards = workers // replicas)")
    serve.add_argument("--hedge-percentile", type=float, default=None,
                       help="hedge straggling sub-requests past this "
                       "service-time percentile (cluster mode; off by default)")
    serve.add_argument("--offered-qps", type=float, default=20e6,
                       help="open-loop offered rate for the cluster load "
                       "harness (virtual time)")
    serve.add_argument("--slo-p99-ms", type=float, default=5.0,
                       help="declared p99 latency SLO for the cluster "
                       "load harness (milliseconds)")
    serve.add_argument("--json", action="store_true",
                       help="emit the run's snapshots as JSON instead of "
                       "tables (same schema as obs registry snapshots)")
    _add_shard_flags(serve)

    trace = sub.add_parser(
        "trace",
        help="serve a traced workload and print where the time goes "
        "(span trees + cost rollup, repro.obs)",
    )
    trace.add_argument("--input", default=None,
                       help=".npz or disk directory to serve "
                       "(default: generate R-MAT)")
    trace.add_argument("--nodes", type=int, default=1 << 10,
                       help="generated graph nodes (ignored with --input)")
    trace.add_argument("--edges", type=int, default=8_000,
                       help="generated graph edges (ignored with --input)")
    trace.add_argument("--requests", type=int, default=64)
    trace.add_argument("--batch", type=int, default=16,
                       help="coalescer max batch size")
    trace.add_argument("--wait-us", type=float, default=200.0,
                       help="coalescer max wait window (microseconds)")
    trace.add_argument("--workload", choices=["zipf", "uniform"],
                       default="zipf")
    trace.add_argument("--skew", type=float, default=1.2)
    trace.add_argument("--edge-fraction", type=float, default=0.25)
    trace.add_argument("--workers", type=int, default=1,
                       help="> 1 traces the scatter-gather cluster path")
    trace.add_argument("--replicas", type=int, default=1)
    trace.add_argument("--partitioner", choices=sorted(PARTITIONER_KINDS),
                       default="range")
    trace.add_argument("--sample-every", type=int, default=1,
                       help="trace every N-th request (the overhead knob)")
    trace.add_argument("--capacity", type=int, default=8192,
                       help="span ring-buffer capacity")
    trace.add_argument("--trees", type=int, default=3,
                       help="request span trees to print (table mode)")
    trace.add_argument("--seed", type=int, default=2023)
    trace.add_argument("--json", action="store_true",
                       help="emit raw spans + rollup as JSON")

    rep = sub.add_parser("report", help="write the full reproduction report")
    rep.add_argument("output", help="markdown output path")
    rep.add_argument("--scale", type=float, default=1 / 256)
    rep.add_argument("--min-edges", type=int, default=100_000)
    rep.add_argument("--seed", type=int, default=2023)

    return parser


def _cmd_generate(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "rmat":
        scale = max(1, int(np.ceil(np.log2(max(2, args.nodes)))))
        src, dst, _ = rmat_edges(scale, args.edges, rng=rng)
    elif args.kind == "er":
        src, dst, _ = er_edges(args.nodes, args.edges, rng=rng)
    elif args.kind == "ba":
        per_node = max(1, args.edges // max(1, args.nodes - 1))
        src, dst, _ = ba_edges(args.nodes, per_node, rng=rng)
    elif args.kind == "ws":
        from .datasets import ws_edges

        per_node = max(1, args.edges // max(1, args.nodes))
        src, dst, _ = ws_edges(args.nodes, min(per_node, args.nodes - 1), 0.1, rng=rng)
    else:  # standin
        ds = standin(args.name, scale=args.scale, seed=args.seed)
        src, dst = ds.sources, ds.destinations
    if args.binary:
        nbytes = write_edge_list_binary(args.output, src, dst)
    else:
        nbytes = write_edge_list(args.output, src, dst)
    print(f"wrote {len(src):,} edges to {args.output} ({human_bytes(nbytes)})")
    return 0


def _is_binary_edge_list(path) -> bool:
    """True when *path* starts with the binary edge-list magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(_BINARY_MAGIC)) == _BINARY_MAGIC
    except OSError:
        return False


def _cmd_build(args) -> int:
    machine = (
        SimulatedMachine(args.processors) if args.processors > 1 else SerialExecutor()
    )
    _check_compact_flags(args)
    binary_input = _is_binary_edge_list(args.input)

    if args.format == "disk":
        from .disk import DEFAULT_SEGMENT_BYTES, build_disk_store, write_disk_store

        if args.shards > 1:
            raise ReproError(
                "--format disk builds one store directory; shard it at query "
                "time (query/serve-bench --shards N) or via the API "
                "(build_sharded_store(inner='disk', path=...))"
            )
        segment_bytes = int(args.segment_bytes or DEFAULT_SEGMENT_BYTES)
        if binary_input:
            if args.order != "natural":
                raise ReproError(
                    "--order needs the in-memory pipeline; the out-of-core "
                    "binary build cannot relabel (build from a text edge "
                    "list, or re-encode afterwards with 'repro compact')"
                )
            # out of core: the edge file is streamed in chunk passes and
            # the graph never materialises in memory
            store = build_disk_store(
                args.input, args.output, sort=not args.no_sort,
                gap_encode=args.gap, codecs=args.codec,
                chunk_edges=args.chunk_edges,
                segment_bytes=segment_bytes, executor=machine,
            )
            print(f"input : {store.num_edges:,} edges, {store.num_nodes:,} "
                  f"nodes (binary, streamed out of core)")
        else:
            src, dst, n = read_edge_list(args.input)
            perm = None
            if args.order != "natural":
                from .csr.builder import build_csr_serial, ensure_sorted
                from .reorder import compute_ordering

                s2, d2 = ensure_sorted(src, dst)
                perm = compute_ordering(args.order, build_csr_serial(s2, d2, n))
                src, dst = perm[src], perm[dst]
            packed = open_store(
                "gap" if args.gap else "packed", src, dst, n,
                executor=machine, sort=not args.no_sort or perm is not None,
            )
            store = write_disk_store(packed, args.output,
                                     segment_bytes=segment_bytes,
                                     codecs=args.codec,
                                     ordering=args.order, perm=perm)
            print(f"input : {len(src):,} edges, {n:,} nodes "
                  f"({human_bytes(edge_list_text_size(src, dst))} as text)")
        print(f"output: {store}")
        if isinstance(machine, SimulatedMachine):
            print(f"build : {machine.elapsed_ms():.3f} simulated ms "
                  f"on p={args.processors}")
        return 0

    if binary_input:
        src, dst, n = read_edge_list_binary(args.input)
    else:
        src, dst, n = read_edge_list(args.input)
    inner = "compact" if args.codec is not None else ("gap" if args.gap else "packed")
    inner_opts = {}
    if args.codec is not None:
        inner_opts["codecs"] = args.codec
        if args.segment_bytes:
            inner_opts["segment_bytes"] = int(args.segment_bytes)
    if args.shards > 1:
        if args.codec is not None or args.order != "natural":
            raise ReproError(
                "--shards cannot combine with --codec/--order on the CLI; "
                "build a sharded store over a compact inner via the API "
                "(build_sharded_store(inner='compact', ...))"
            )
        store = open_store(
            "sharded", src, dst, n, shards=args.shards,
            partitioner=args.partitioner, inner=inner,
            executor=machine, sort=not args.no_sort,
        )
    elif args.order != "natural":
        store = open_store(
            "reordered", src, dst, n, order=args.order, inner=inner,
            executor=machine, **inner_opts,
        )
    else:
        store = open_store(
            inner, src, dst, n, executor=machine, sort=not args.no_sort,
            **inner_opts,
        )
    store.save(args.output)
    print(f"input : {len(src):,} edges, {n:,} nodes "
          f"({human_bytes(edge_list_text_size(src, dst))} as text)")
    print(f"output: {store}")
    if isinstance(machine, SimulatedMachine):
        print(f"build : {machine.elapsed_ms():.3f} simulated ms on p={args.processors}")
    return 0


def _load(path):
    """Open a store file/directory via :func:`repro.stores.load_store`."""
    return load_store(path)


def _reshard(store, args):
    """Re-partition a loaded store in memory when ``--shards N`` asks for it."""
    if args.shards <= 1 or isinstance(store, ShardedStore):
        return store
    src, dst = store.to_csr().edges()
    return open_store(
        "sharded", src, dst, store.num_nodes, shards=args.shards,
        partitioner=args.partitioner,
        inner="gap" if store.gap_encoded else "packed",
    )


def _print_codec_lines(store) -> None:
    """Per-codec segment/size breakdown lines (stores that track codecs)."""
    fn = getattr(store, "codec_breakdown", None)
    if not callable(fn):
        return
    for name, row in sorted(fn().items()):
        per_edge = row["bits"] / max(1, row["edges"])
        print(f"  codec {name:<9}: {row['segments']} segments, "
              f"{row['edges']:,} edges, {per_edge:.2f} bits/edge")


def _store_info(store) -> dict:
    """The facts ``info`` prints, as one JSON-safe dict."""
    from .obs import to_jsonable

    out = {
        "kind": type(store).__name__,
        "store": repr(store),
        "nodes": int(store.num_nodes),
        "edges": int(store.num_edges),
    }
    for name in ("memory_bytes", "disk_bytes", "bits_per_edge",
                 "codec_breakdown", "stats"):
        fn = getattr(store, name, None)
        if callable(fn):
            out[name] = to_jsonable(fn())
    for name in ("ordering", "gap_encoded", "offset_width", "column_width"):
        value = getattr(store, name, None)
        if value is not None and not callable(value):
            out[name] = to_jsonable(value)
    return out


def _cmd_info(args) -> int:
    packed = _load(args.input)
    if args.json:
        print(json.dumps(_store_info(packed), indent=2))
        return 0
    if isinstance(packed, ReorderedStore):
        print(packed)
        print(f"  nodes          : {packed.num_nodes:,}")
        print(f"  edges          : {packed.num_edges:,}")
        print(f"  ordering       : {packed.ordering}")
        print(f"  id tables      : "
              f"{human_bytes(packed.perm.nbytes + packed.inv.nbytes)}")
        print(f"  inner          : {packed.inner}")
        print(f"  memory         : {human_bytes(packed.memory_bytes())}")
        print(f"  bits per edge  : {packed.bits_per_edge():.2f} "
              "(inner encoding; id tables excluded)")
        _print_codec_lines(packed.inner)
        return 0
    if isinstance(packed, CompactStore):
        print(packed)
        print(f"  nodes          : {packed.num_nodes:,}")
        print(f"  edges          : {packed.num_edges:,}")
        print(f"  offset width   : {packed.offset_width} bits")
        print(f"  segments       : {len(packed.segments)} column")
        print(f"  payload        : {human_bytes(packed.memory_bytes())}")
        print(f"  bits per edge  : {packed.bits_per_edge():.2f}")
        _print_codec_lines(packed)
        return 0
    if isinstance(packed, DiskStore):
        print(packed)
        print(f"  nodes          : {packed.num_nodes:,}")
        print(f"  edges          : {packed.num_edges:,}")
        print(f"  offset width   : {packed.offset_width} bits")
        print(f"  column width   : {packed.column_width} bits")
        print(f"  gap encoded    : {packed.gap_encoded}")
        print(f"  ordering       : {packed.ordering}")
        print(f"  segments       : {len(packed.manifest.offsets)} offset + "
              f"{len(packed.manifest.columns)} column")
        print(f"  on disk        : {human_bytes(packed.disk_bytes())}")
        print(f"  resident       : {human_bytes(packed.memory_bytes())}")
        print(f"  bits per edge  : {packed.bits_per_edge():.2f}")
        _print_codec_lines(packed)
        return 0
    if isinstance(packed, ShardedStore):
        print(packed)
        print(f"  nodes          : {packed.num_nodes:,}")
        print(f"  edges          : {packed.num_edges:,}")
        print(f"  partitioner    : {packed.partitioner.kind}")
        print(f"  payload        : {human_bytes(packed.memory_bytes())}")
        for s, shard in enumerate(packed.shards):
            print(f"  shard {s:<2}       : {shard}")
        return 0
    if isinstance(packed, LsmStore):
        stats = packed.stats()
        print(packed)
        print(f"  nodes          : {packed.num_nodes:,}")
        print(f"  logical edges  : {packed.num_edges:,}")
        print(f"  memtable       : {stats.memtable_edges:,} entries "
              f"({stats.tombstones:,} tombstones)")
        print(f"  inner kind     : {packed.inner}")
        print(f"  watermark      : {stats.compact_watermark or 'off'}")
        print(f"  compactions    : {stats.compactions} "
              f"(+{stats.flushes} flushes)")
        print(f"  payload        : {human_bytes(packed.memory_bytes())}")
        for s, seg in enumerate(packed.segments):
            print(f"  segment {s:<2}     : {seg}")
        return 0
    print(packed)
    print(f"  nodes          : {packed.num_nodes:,}")
    print(f"  edges          : {packed.num_edges:,}")
    print(f"  offset width   : {packed.offset_width} bits")
    print(f"  column width   : {packed.column_width} bits")
    print(f"  gap encoded    : {packed.gap_encoded}")
    print(f"  weighted       : {packed.is_weighted}")
    print(f"  payload        : {human_bytes(packed.memory_bytes())}")
    print(f"  bits per edge  : {packed.bits_per_edge():.2f}")
    return 0


def _cmd_compact(args) -> int:
    _check_compact_flags(args)
    store = _load(args.input)
    before = store.bits_per_edge()
    graph = store.to_csr()
    src, dst = graph.edges()
    n = graph.num_nodes
    seg_opts = (
        {"segment_bytes": int(args.segment_bytes)} if args.segment_bytes else {}
    )
    if args.format == "disk":
        from .csr.packed import build_bitpacked_csr
        from .disk import DEFAULT_SEGMENT_BYTES, write_disk_store
        from .reorder import compute_ordering

        perm = None
        if args.order != "natural":
            perm = compute_ordering(args.order, graph)
            src, dst = perm[src], perm[dst]
        inner = build_bitpacked_csr(src, dst, n, None, sort=True)
        out = write_disk_store(
            inner, args.output,
            segment_bytes=int(args.segment_bytes or DEFAULT_SEGMENT_BYTES),
            codecs=args.codec, ordering=args.order, perm=perm,
        )
    else:
        if args.order != "natural":
            out = open_store(
                "reordered", src, dst, n, order=args.order,
                inner="compact", codecs=args.codec, **seg_opts,
            )
        else:
            out = open_store(
                "compact", src, dst, n, codecs=args.codec, **seg_opts,
            )
        out.save(args.output)
    after = out.bits_per_edge()
    saved = (1.0 - after / max(before, 1e-12)) * 100.0
    print(f"input : {store}")
    print(f"output: {out}")
    print(f"bits/edge: {before:.2f} -> {after:.2f} ({saved:+.1f}% saved)")
    return 0


def _cmd_query(args) -> int:
    from .analysis.serving import render_lsm_stats
    from .analysis.tracing import render_cache_stats
    from .query import RowCache

    store = _reshard(_load(args.input), args)
    lsm = store if isinstance(store, LsmStore) else None
    if args.writes > 0 or args.save:
        if lsm is None:
            # any loaded store becomes the immutable base segment of a
            # fresh overlay; the write stream lands in its memtable
            lsm = LsmStore(
                store.num_nodes, [store],
                compact_watermark=args.compact_watermark,
            )
        else:
            lsm.compact_watermark = int(args.compact_watermark)
        store = lsm
    if args.writes > 0:
        from .lsm import apply_random_writes

        applied = apply_random_writes(lsm, args.writes, seed=args.write_seed)
        print(f"writes: {applied['inserts']} inserts, "
              f"{applied['deletes']} deletes, {applied['noops']} no-ops, "
              f"{applied['compactions']} compactions")
    if args.save:
        if lsm.segments and not all(
            isinstance(s, BitPackedCSR) for s in lsm.segments
        ):
            lsm.compact()  # fold to one freshly packed segment first
        lsm.save(args.save)
        print(f"saved lsm store to {args.save}")
    if args.cache_elements > 0:
        store = RowCache(store, capacity=args.cache_elements)
    rc = 0
    if args.query_kind == "neighbors":
        for u in args.nodes:
            row = store.neighbors(u)
            print(f"{u}: degree {row.shape[0]}: {row.tolist()}")
    else:
        present = store.has_edge(args.u, args.v)
        print(f"edge ({args.u}, {args.v}): {'present' if present else 'absent'}")
        rc = 0 if present else 3
    if isinstance(store, RowCache):
        print(render_cache_stats(store))
    if lsm is not None:
        print(render_lsm_stats(lsm))
    return rc


def _render_analytics_value(value, stats, top: int) -> None:
    """Print an algorithm's value in the shape-appropriate way."""
    from .analysis.tables import render_table

    if stats:
        print("stats: " + ", ".join(
            f"{k}={v}" for k, v in sorted(stats.items())))
    if isinstance(value, np.ndarray) and value.dtype.kind == "f":
        order = np.argsort(value)[::-1][:top]
        rows = [[int(i), float(value[i])] for i in order]
        print(render_table(["node", "value"], rows,
                           title=f"top {len(rows)} nodes by value"))
    elif isinstance(value, np.ndarray):
        head = value[:top]
        print(f"value[:{head.shape[0]}] = {head.tolist()}")
    else:
        print(f"value = {value}")


def _cmd_analyze(args) -> int:
    from .algorithms import make_stepper
    from .analysis.speedup import SpeedupCurve
    from .analysis.tables import render_table

    store = _reshard(_load(args.input), args)
    params = {k: v for k, v in (
        ("source", args.source), ("damping", args.damping),
        ("tol", args.tol), ("max_iter", args.max_iter),
        ("method", args.method),
    ) if v is not None}

    def run_at(p: int):
        machine = SimulatedMachine(p)
        stepper = make_stepper(args.algorithm, store, machine, **params)
        return stepper.run(), machine.elapsed_ms()

    try:
        if args.sweep:
            ps = sorted({int(tok) for tok in args.sweep.split(",")
                         if tok.strip()} | {1})
            times, result = {}, None
            for p in ps:
                result, times[p] = run_at(p)
            curve = SpeedupCurve(args.algorithm, times)
            ratios = curve.ratios()
            rows = [[p, times[p], ratios[p]] for p in ps]
            print(render_table(
                ["p", "simulated ms", "speed-up"], rows,
                title=f"{args.algorithm}: simulated scaling (Amdahl serial "
                      f"fraction {curve.serial_fraction():.3f})"))
        else:
            result, ms = run_at(args.processors)
            print(f"{args.algorithm}: {result.rounds} rounds, "
                  f"converged={result.converged}, simulated {ms:.3f} ms "
                  f"on p={args.processors}")
    except TypeError as exc:
        raise ReproError(
            f"bad parameter for algorithm '{args.algorithm}': {exc}"
        ) from exc
    _render_analytics_value(result.value, result.stats, args.top)
    return 0


def _cmd_bench(args) -> int:
    if args.artifact == "table2":
        result = run_table2(scale=args.scale, min_edges=args.min_edges)
        print(result.render())
        print()
        print(result.render_projection())
    else:
        curves = run_fig6(scale=args.scale, min_edges=args.min_edges)
        print(render_fig6(curves) if args.artifact == "fig6" else render_fig7(curves))
    return 0


def _serve_store(args):
    """The store a serve bench runs against: loaded, or a seeded R-MAT."""
    if args.input:
        return _reshard(_load(args.input), args)
    scale = max(1, int(np.ceil(np.log2(max(2, args.nodes)))))
    src, dst, n = rmat_edges(scale, args.edges, rng=np.random.default_rng(args.seed))
    if args.shards > 1:
        return open_store(
            "sharded", src, dst, n, shards=args.shards,
            partitioner=args.partitioner, sort=True,
        )
    return open_store("packed", src, dst, n, sort=True)


def _serve_config(args, *, batch: int, wait_us: float):
    """The :class:`ServerConfig` a serve-bench run asks for."""
    from .serve import ServerConfig

    return ServerConfig(
        cache_elements=args.cache_elements,
        max_batch_size=batch,
        max_wait_ns=wait_us * 1e3,
        queue_capacity=args.capacity,
        policy=args.policy,
    )


def _run_serve(store, workload, args, *, batch: int, wait_us: float):
    """Serve *workload* as fast as it can be fed; returns (server, seconds)."""
    import time as _time

    from .serve import GraphQueryServer

    server = GraphQueryServer(
        store, config=_serve_config(args, batch=batch, wait_us=wait_us)
    )
    t0 = _time.perf_counter()
    for _, request in workload:
        server.submit(request)
    server.drain()
    return server, _time.perf_counter() - t0


def _cmd_serve_bench_cluster(args) -> int:
    """The cluster load harness: 1-worker vs N-worker scaling, SLO-gated."""
    from .analysis.serving import render_cluster_report, render_load_result
    from .analysis.tables import render_table
    from .serve import SLO, ManualClock, ServerConfig, open_server, run_open_loop

    if args.write_fraction > 0:
        raise ReproError(
            "cluster serving is read-only; drop --workers/--replicas "
            "to bench mixed read/write traffic"
        )
    if args.input:
        from .cluster import extract_edges

        store = _load(args.input)
        src, dst = extract_edges(store)
        n = int(store.num_nodes)
    else:
        scale = max(1, int(np.ceil(np.log2(max(2, args.nodes)))))
        src, dst, n = rmat_edges(
            scale, args.edges, rng=np.random.default_rng(args.seed)
        )
    config = ServerConfig(
        store_kind="packed",
        edges=(src, dst, n),
        workers=args.workers,
        replicas=args.replicas,
        partitioner=args.partitioner,
        cluster=True,
        cache_elements=args.cache_elements,
        max_batch_size=args.batch,
        max_wait_ns=args.wait_us * 1e3,
        queue_capacity=args.capacity,
        policy=args.policy,
        hedge_percentile=args.hedge_percentile,
    )
    slo = SLO(p99_ms=args.slo_p99_ms)

    def run(cfg):
        router = open_server(cfg, clock=ManualClock())
        result = run_open_loop(
            router,
            n_requests=args.requests,
            num_nodes=n,
            offered_qps=args.offered_qps,
            kind=args.workload,
            skew=args.skew,
            edge_fraction=args.edge_fraction,
            seed=args.seed,
            slo=slo,
        )
        return router, result

    base_router, base = run(config.with_overrides(workers=1, replicas=1))
    router, scaled = run(config)
    speedup = scaled.achieved_qps / max(base.achieved_qps, 1e-9)
    if args.json:
        from .obs import to_jsonable

        print(json.dumps({
            "command": "serve-bench",
            "mode": "cluster",
            "workers": args.workers,
            "replicas": args.replicas,
            "shards": router.num_shards,
            "speedup": speedup,
            "base": to_jsonable(base),
            "scaled": to_jsonable(scaled),
            "cluster": to_jsonable(router.cluster_stats()),
        }, indent=2))
        return 0
    print(f"cluster: {args.workers} workers x shard replicas "
          f"{args.replicas} ({router.num_shards} shards), "
          f"{len(src):,} edges, {n:,} nodes")
    print(f"offered: {args.offered_qps:,.0f} qps open-loop "
          f"({args.requests:,} {args.workload} requests, virtual time)")
    print()
    print(render_table(
        ["workers", "qps", "p50 (ms)", "p95 (ms)", "p99 (ms)", "slo"],
        [
            [1, f"{base.achieved_qps:,.0f}", f"{base.p50_ms:.3f}",
             f"{base.p95_ms:.3f}", f"{base.p99_ms:.3f}",
             "met" if base.met else "MISS"],
            [args.workers, f"{scaled.achieved_qps:,.0f}",
             f"{scaled.p50_ms:.3f}", f"{scaled.p95_ms:.3f}",
             f"{scaled.p99_ms:.3f}", "met" if scaled.met else "MISS"],
        ],
        title=f"cluster scaling ({speedup:.2f}x, "
              f"SLO p99 <= {args.slo_p99_ms:g} ms)",
    ))
    print()
    print(render_load_result(scaled, title=f"{args.workers}-worker load run"))
    print()
    print(render_cluster_report(router))
    return 0


def _cmd_serve_bench(args) -> int:
    from .analysis.serving import render_serve_report
    from .analysis.tables import render_table
    from .serve import synthetic_workload

    if args.workers > 1 or args.replicas > 1:
        return _cmd_serve_bench_cluster(args)
    from .cluster import extract_edges

    store = _serve_store(args)
    # re-derive planted edges from the store itself so half the edge
    # queries hit regardless of where the graph came from
    src_edges = extract_edges(store)

    def fresh_workload():
        return synthetic_workload(
            args.requests,
            store.num_nodes,
            kind=args.workload,
            skew=args.skew,
            edge_fraction=args.edge_fraction,
            mean_interarrival_ns=0.0,
            edges=src_edges,
            seed=args.seed,
            write_fraction=args.write_fraction,
        )

    def fresh_store():
        # mixed traffic mutates the store, so each run gets its own
        # lsm overlay over the shared immutable base — both modes see
        # an identical starting state
        if args.write_fraction <= 0:
            return store
        if isinstance(store, LsmStore):
            raise ReproError(
                "--write-fraction overlays the store itself; pass the "
                "immutable base store, not an lsm file"
            )
        return LsmStore(
            store.num_nodes, [store],
            compact_watermark=args.compact_watermark,
        )

    single_srv, single_s = _run_serve(
        fresh_store(), fresh_workload(), args, batch=1, wait_us=0.0
    )
    coal_srv, coal_s = _run_serve(
        fresh_store(), fresh_workload(), args, batch=args.batch,
        wait_us=args.wait_us
    )
    single = single_srv.snapshot(elapsed_s=single_s)
    coal = coal_srv.snapshot(elapsed_s=coal_s)
    speedup = (coal.throughput_rps or 0.0) / max(single.throughput_rps or 1.0, 1e-9)
    if args.json:
        from .obs import to_jsonable

        print(json.dumps({
            "command": "serve-bench",
            "mode": "monolithic",
            "store": repr(store),
            "requests": args.requests,
            "workload": args.workload,
            "speedup": speedup,
            "single": to_jsonable(single),
            "coalesced": to_jsonable(coal),
        }, indent=2))
        return 0
    print(f"store : {store}")
    print(f"served: {args.requests:,} {args.workload} requests "
          f"(edge fraction {args.edge_fraction}), policy={args.policy}")
    print()
    print(render_table(
        ["mode", "batch", "served", "seconds", "req/s"],
        [
            ["single-request", 1, single.completed, f"{single_s:.3f}",
             f"{single.throughput_rps:,.0f}"],
            [f"coalesced (wait {args.wait_us:.0f}us)", args.batch,
             coal.completed, f"{coal_s:.3f}", f"{coal.throughput_rps:,.0f}"],
        ],
        title=f"serving throughput (coalesced speedup {speedup:.1f}x)",
    ))
    print()
    print(render_serve_report(coal, coal_srv.row_cache,
                              title="coalesced run metrics"))
    return 0


def _cmd_trace(args) -> int:
    """Serve a traced workload, then render where the time went."""
    from .analysis.obs import render_flamegraph, render_rollup, render_span_tree
    from .obs import ObsConfig, rollup_spans, to_jsonable
    from .serve import ManualClock, ServerConfig, open_server, synthetic_workload

    obs = ObsConfig(enabled=True, capacity=args.capacity,
                    sample_every=args.sample_every)
    cluster = args.workers > 1 or args.replicas > 1
    common = dict(
        max_batch_size=args.batch,
        max_wait_ns=args.wait_us * 1e3,
        obs=obs,
    )
    if args.input:
        store = _load(args.input)
        n = int(store.num_nodes)
        if cluster:
            from .cluster import extract_edges

            src, dst = extract_edges(store)
            config = ServerConfig(
                store_kind="packed", edges=(src, dst, n),
                store_opts={"sort": True},
                workers=args.workers, replicas=args.replicas,
                partitioner=args.partitioner, cluster=True, **common,
            )
        else:
            config = ServerConfig(store=store, **common)
    else:
        scale = max(1, int(np.ceil(np.log2(max(2, args.nodes)))))
        src, dst, n = rmat_edges(
            scale, args.edges, rng=np.random.default_rng(args.seed)
        )
        config = ServerConfig(
            store_kind="packed", edges=(src, dst, n),
            store_opts={"sort": True},
            workers=args.workers, replicas=args.replicas,
            partitioner=args.partitioner, cluster=cluster, **common,
        )
    clock = ManualClock()
    server = open_server(config, clock=clock)
    workload = synthetic_workload(
        args.requests, n, kind=args.workload, skew=args.skew,
        edge_fraction=args.edge_fraction,
        mean_interarrival_ns=args.wait_us * 1e3 / max(args.batch, 1),
        seed=args.seed,
    )
    for arrival_ns, request in workload:
        clock.advance_to(float(arrival_ns))
        server.submit(request)
        server.pump(clock())
    server.drain()
    tracer = server.tracer
    spans = tracer.spans()
    if args.json:
        print(json.dumps({
            "command": "trace",
            "mode": "cluster" if cluster else "monolithic",
            "sample_every": args.sample_every,
            "dropped_spans": tracer.dropped,
            "spans": [s.to_dict() for s in spans],
            "rollup": [to_jsonable(r) for r in rollup_spans(spans)],
        }, indent=2))
        return 0
    roots = [s for s in spans if s.parent_id is None]
    print(f"traced {len(roots)} roots / {len(spans)} spans "
          f"(sample every {args.sample_every}, {tracer.dropped} dropped "
          f"from a ring of {args.capacity})")
    print()
    for root in roots[: max(args.trees, 0)]:
        label = (f"ticket {root.ticket}" if root.ticket >= 0
                 else root.name)
        print(render_span_tree(spans, root=root.span_id,
                               title=f"trace: {label} ({root.name})"))
        print()
    print(render_rollup(spans))
    print()
    print("flamegraph (folded stacks, cost-model ns):")
    print(render_flamegraph(spans))
    return 0


def _cmd_report(args) -> int:
    from .analysis.report import write_report

    path = write_report(
        args.output, scale=args.scale, min_edges=args.min_edges, seed=args.seed
    )
    print(f"wrote reproduction report to {path}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "build": _cmd_build,
    "compact": _cmd_compact,
    "info": _cmd_info,
    "query": _cmd_query,
    "analyze": _cmd_analyze,
    "bench": _cmd_bench,
    "serve-bench": _cmd_serve_bench,
    "trace": _cmd_trace,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
