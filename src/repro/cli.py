"""Command-line interface: ``python -m repro <command>``.

The CLI decides nothing about stores, servers or file formats: every
command parses its flags and calls the library entry that owns the
decision (:func:`~repro.stores.open_store` / :func:`~repro.stores.save_store` /
:func:`~repro.stores.load_store`, :func:`~repro.disk.pack_disk_store` /
:func:`~repro.disk.build_disk_store`, :func:`~repro.lsm.writable_overlay`,
:func:`~repro.serve.open_server`).

Commands
--------
* ``generate`` — write a synthetic edge list (rmat / er / ba / ws /
  standin), as text or ``--binary``.
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
* ``report`` — write the full reproduction report (every paper
  artifact) as one markdown file.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .analysis.experiments import render_fig6, render_fig7, run_fig6, run_table2
from .csr.io import (
    edge_list_text_size,
    is_binary_edge_list,
    read_edge_list,
    read_edge_list_binary,
    write_edge_list,
    write_edge_list_binary,
)
from .datasets import ba_edges, er_edges, rmat_edges, rmat_scale, standin
from .errors import ReproError, ValidationError
from .parallel import SerialExecutor, SimulatedMachine
from .reorder import available_orderings
from .shard import PARTITIONER_KINDS
from .stores import load_store, open_store, save_store
from .utils import human_bytes

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


def _segment_opts(args) -> dict:
    """``--segment-bytes`` as a builder option (the builder's default when unset)."""
    return {"segment_bytes": int(args.segment_bytes)} if args.segment_bytes else {}


def _add_shard_flags(cmd) -> None:
    cmd.add_argument("--shards", type=int, default=1,
                     help="shard the store this many ways (1 = monolithic)")
    cmd.add_argument("--partitioner", choices=sorted(PARTITIONER_KINDS),
                     default="range",
                     help="shard routing: contiguous node ranges or splitmix64")


def _add_served_graph_flags(cmd, *, nodes: int, edges: int, requests: int,
                            batch: int) -> None:
    """What ``serve-bench`` and ``trace`` serve and how they batch it."""
    cmd.add_argument("--input", default=None,
                     help=".npz or disk directory to serve "
                     "(default: generate R-MAT)")
    cmd.add_argument("--nodes", type=int, default=nodes,
                     help="generated graph nodes (ignored with --input)")
    cmd.add_argument("--edges", type=int, default=edges,
                     help="generated graph edges (ignored with --input)")
    cmd.add_argument("--requests", type=int, default=requests)
    cmd.add_argument("--batch", type=int, default=batch,
                     help="coalescer max batch size")
    cmd.add_argument("--wait-us", type=float, default=200.0,
                     help="coalescer max wait window (microseconds)")


def _add_traffic_flags(cmd) -> None:
    """The synthetic request mix ``serve-bench`` and ``trace`` share."""
    cmd.add_argument("--workload", choices=["zipf", "uniform"], default="zipf")
    cmd.add_argument("--skew", type=float, default=1.2)
    cmd.add_argument("--edge-fraction", type=float, default=0.25)


def _traffic(args) -> dict:
    """Those flags (and ``--seed``) as the workload generators' keywords."""
    return {"kind": args.workload, "skew": args.skew,
            "edge_fraction": args.edge_fraction, "seed": args.seed}


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
                       help="input is already sorted by (source, destination)")
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
    _add_served_graph_flags(serve, nodes=1 << 12, edges=60_000,
                            requests=10_000, batch=256)
    serve.add_argument("--capacity", type=int, default=4096,
                       help="admission queue capacity")
    serve.add_argument("--policy", choices=["reject", "shed-oldest", "block"],
                       default="block")
    _add_traffic_flags(serve)
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
    _add_served_graph_flags(trace, nodes=1 << 10, edges=8_000, requests=64,
                            batch=16)
    _add_traffic_flags(trace)
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
        src, dst, _ = rmat_edges(rmat_scale(args.nodes), args.edges, rng=rng)
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


def _cmd_build(args) -> int:
    machine = (
        SimulatedMachine(args.processors) if args.processors > 1 else SerialExecutor()
    )
    _check_compact_flags(args)
    binary = is_binary_edge_list(args.input)
    if args.format == "disk" and args.shards > 1:
        raise ReproError(
            "--format disk builds one store directory; shard it at query "
            "time (query/serve-bench --shards N) or via the API "
            "(build_sharded_store(inner='disk', path=...))"
        )
    if args.format == "disk" and binary:
        from .disk import build_disk_store

        if args.order != "natural":
            raise ReproError(
                "--order needs the in-memory pipeline; the out-of-core "
                "binary build cannot relabel (build from a text edge "
                "list, or re-encode afterwards with 'repro compact')"
            )
        # out of core: the edge file is streamed in chunk passes and
        # the graph never materialises in memory
        store = build_disk_store(
            args.input, args.output, gap_encode=args.gap, codecs=args.codec,
            chunk_edges=args.chunk_edges, executor=machine,
            **_segment_opts(args),
        )
        print(f"input : {store.num_edges:,} edges, {store.num_nodes:,} "
              f"nodes (binary, streamed out of core)")
    else:
        src, dst, n = (read_edge_list_binary if binary else read_edge_list)(args.input)
        store = _build_in_memory(args, src, dst, n, machine)
        print(f"input : {len(src):,} edges, {n:,} nodes "
              f"({human_bytes(edge_list_text_size(src, dst))} as text)")
    print(f"output: {store}")
    if isinstance(machine, SimulatedMachine):
        print(f"build : {machine.elapsed_ms():.3f} simulated ms on p={args.processors}")
    return 0


def _build_in_memory(args, src, dst, n, machine):
    """``build`` from edge arrays: a disk directory, or a saved ``.npz`` store."""
    if args.format == "disk":
        from .disk import pack_disk_store

        return pack_disk_store(
            src, dst, n, args.output, order=args.order, codecs=args.codec,
            executor=machine, sort=not args.no_sort, gap_encode=args.gap,
            **_segment_opts(args),
        )
    if args.codec is not None:
        inner, inner_opts = "compact", {"codecs": args.codec, **_segment_opts(args)}
    elif args.segment_bytes:
        raise ReproError(
            "--segment-bytes sizes disk or codec segments; add --codec "
            "or --format disk (a plain .npz has no segments)"
        )
    else:
        inner, inner_opts = "gap" if args.gap else "packed", {}
    if args.shards > 1:
        if args.codec is not None or args.order != "natural":
            raise ReproError(
                "--shards cannot combine with --codec/--order on the CLI; "
                "build a sharded store over a compact inner via the API "
                "(build_sharded_store(inner='compact', ...))"
            )
        kind, opts = "sharded", dict(_shard_opts(args), inner=inner,
                                     sort=not args.no_sort)
    elif args.order != "natural":
        kind, opts = "reordered", {"order": args.order, "inner": inner, **inner_opts}
    else:
        kind, opts = inner, {"sort": not args.no_sort, **inner_opts}
    store = open_store(kind, src, dst, n, executor=machine, **opts)
    save_store(store, args.output)
    return store


def _shard_opts(args) -> dict:
    return {"shards": args.shards, "partitioner": args.partitioner}


def _edges(store) -> tuple:
    """``(src, dst, n)`` of any readable store — the one way the CLI
    recovers an edge list (one whole-graph batch read)."""
    from .cluster import extract_edges

    return (*extract_edges(store), int(store.num_nodes))


def _reshard(store, args):
    """Re-partition a loaded store in memory when ``--shards N`` asks for it."""
    if args.shards <= 1 or hasattr(store, "shards"):
        return store
    return open_store(
        "sharded", *_edges(store), **_shard_opts(args),
        inner="gap" if store.gap_encoded else "packed",
    )


def _codec_lines(breakdown) -> list:
    return [
        (f"codec {name}", f"{row['segments']} segments, {row['edges']:,} "
         f"edges, {row['bits'] / max(1, row['edges']):.2f} bits/edge")
        for name, row in sorted(breakdown.items())
    ]


def _numbered(label: str):
    return lambda items: [(f"{label} {i}", str(item)) for i, item in enumerate(items)]


_COUNT = "{:,}".format
_BITS = "{} bits".format

#: Everything ``info`` knows, in report order: ``(text label, --json
#: key, value, text format[, members])``.  A row applies to a store
#: that has what *value* reads (``AttributeError`` or ``None`` skips
#: it); its value goes to the JSON document under *key* and to the text
#: report under *label* — unless an earlier row already printed that
#: key (label variants), or *members* is given and the store has none
#: of them (facts a wrapper forwards for the cost model but that
#: describe its inner store's layout, not its own).
_FACTS = (
    ("nodes", "nodes", lambda s: int(s.num_nodes), _COUNT),
    ("logical edges", "edges", lambda s: int(s.num_edges), _COUNT, "memtable"),
    ("edges", "edges", lambda s: int(s.num_edges), _COUNT),
    ("offset width", "offset_width", lambda s: s.offset_width, _BITS,
     "offsets manifest"),
    ("column width", "column_width", lambda s: s.column_width, _BITS,
     "columns manifest"),
    ("gap encoded", "gap_encoded", lambda s: s.gap_encoded, str,
     "columns manifest"),
    ("weighted", None, lambda s: s.is_weighted, str),
    ("ordering", "ordering", lambda s: s.ordering, str),
    ("id tables", None, lambda s: s.perm.nbytes + s.inv.nbytes, human_bytes),
    ("inner", None, lambda s: s.inner, str, "perm"),
    ("partitioner", None, lambda s: s.partitioner.kind, str),
    ("memtable", "stats", lambda s: s.stats(),
     lambda st: f"{st.memtable_edges:,} entries ({st.tombstones:,} tombstones)"),
    ("inner kind", None, lambda s: s.inner, str, "memtable"),
    ("watermark", None, lambda s: s.stats().compact_watermark or "off", str),
    ("compactions", None, lambda s: s.stats().compactions, str),
    ("segments", None, lambda s: s.manifest,
     lambda m: f"{len(m.offsets)} offset + {len(m.columns)} column"),
    ("segments", None, lambda s: len(s.segments), "{} column".format,
     "codec_breakdown"),
    ("on disk", "disk_bytes", lambda s: s.disk_bytes(), human_bytes),
    ("resident", "memory_bytes", lambda s: s.memory_bytes(), human_bytes,
     "disk_bytes"),
    ("memory", "memory_bytes", lambda s: s.memory_bytes(), human_bytes, "perm"),
    ("payload", "memory_bytes", lambda s: s.memory_bytes(), human_bytes),
    ("bits per edge", "bits_per_edge", lambda s: s.bits_per_edge(),
     "{:.2f} (inner encoding; id tables excluded)".format, "perm"),
    ("bits per edge", "bits_per_edge", lambda s: s.bits_per_edge(), "{:.2f}".format),
    ("codec", "codec_breakdown", lambda s: s.codec_breakdown(), _codec_lines),
    ("codec", None, lambda s: s.inner.codec_breakdown(), _codec_lines, "perm"),
    ("shard", None, lambda s: s.shards, _numbered("shard")),
    ("segment", None, lambda s: s.segments, _numbered("segment"), "memtable"),
)


def _store_facts(store) -> tuple[dict, list]:
    """``(--json document, text rows)`` of *store*, both from :data:`_FACTS`."""
    from .obs import to_jsonable

    doc = {"kind": type(store).__name__, "store": repr(store)}
    rows, printed = [], set()
    for label, key, value_of, fmt, *members in _FACTS:
        try:
            value = value_of(store)
        except AttributeError:
            continue
        if value is None:
            continue
        if key is not None:
            doc.setdefault(key, to_jsonable(value))
        if key in printed or (
            members and not any(hasattr(store, m) for m in members[0].split())
        ):
            continue
        if key is not None:
            printed.add(key)
        text = fmt(value)
        rows += text if isinstance(text, list) else [(label, text)]
    return doc, rows


def _cmd_info(args) -> int:
    store = load_store(args.input)
    doc, rows = _store_facts(store)
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    print(store)
    for label, text in rows:
        print(f"  {label:<15}: {text}")
    return 0


def _cmd_compact(args) -> int:
    _check_compact_flags(args)
    store = load_store(args.input)
    before = store.bits_per_edge()
    src, dst, n = _edges(store)
    if args.format == "disk":
        from .disk import pack_disk_store

        out = pack_disk_store(
            src, dst, n, args.output, order=args.order, codecs=args.codec,
            sort=True, **_segment_opts(args),
        )
    else:
        kind, opts = "compact", {}
        if args.order != "natural":
            kind, opts = "reordered", {"order": args.order, "inner": "compact"}
        out = open_store(kind, src, dst, n, codecs=args.codec, **opts,
                         **_segment_opts(args))
        save_store(out, args.output)
    after = out.bits_per_edge()
    saved = (1.0 - after / max(before, 1e-12)) * 100.0
    print(f"input : {store}")
    print(f"output: {out}")
    print(f"bits/edge: {before:.2f} -> {after:.2f} ({saved:+.1f}% saved)")
    return 0


def _cmd_query(args) -> int:
    from .analysis.serving import render_cache_stats, render_lsm_stats
    from .lsm import apply_random_writes, writable_overlay
    from .query import RowCache
    from .query.capabilities import capabilities

    store = _reshard(load_store(args.input), args)
    if args.writes > 0 or args.save:
        # any loaded store becomes the immutable base segment of a
        # fresh overlay; the write stream lands in its memtable
        store = writable_overlay(store, args.compact_watermark)
    lsm = store if capabilities(store).supports_writes else None
    if args.writes > 0:
        applied = apply_random_writes(lsm, args.writes, seed=args.write_seed)
        print(f"writes: {applied['inserts']} inserts, "
              f"{applied['deletes']} deletes, {applied['noops']} no-ops, "
              f"{applied['compactions']} compactions")
    if args.save:
        try:
            save_store(lsm, args.save)
        except ValidationError:
            lsm.compact()  # the base is not packed: fold it to one packed segment
            save_store(lsm, args.save)
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
    if args.cache_elements > 0:
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

    store = _reshard(load_store(args.input), args)
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


def _graph_source(args, *, as_edges: bool) -> dict:
    """The :class:`ServerConfig` store fields ``serve-bench`` and
    ``trace`` serve from: the ``--input`` store — its recovered edge
    list when *as_edges*, for a cluster to re-shard — or a seeded R-MAT
    edge list."""
    if args.input:
        store = load_store(args.input)
        if not as_edges:
            return {"store": store}
        edges = _edges(store)
    else:
        edges = rmat_edges(rmat_scale(args.nodes), args.edges,
                           rng=np.random.default_rng(args.seed))
    return {"store_kind": "packed", "edges": edges, "store_opts": {"sort": True}}


def _server_config(args, **overrides):
    """Every :class:`ServerConfig` the CLI builds: the serving flags
    *args* carries (``serve-bench`` has more of them than ``trace``),
    then *overrides*."""
    from .serve import ServerConfig

    fields = dict(
        max_batch_size=args.batch,
        max_wait_ns=args.wait_us * 1e3,
        workers=args.workers,
        replicas=args.replicas,
        partitioner=args.partitioner,
    )
    if args.command == "serve-bench":
        fields.update(
            cache_elements=args.cache_elements,
            queue_capacity=args.capacity,
            policy=args.policy,
            hedge_percentile=args.hedge_percentile,
        )
    return ServerConfig(**{**fields, **overrides})


def _cmd_serve_bench_cluster(args) -> int:
    """The cluster load harness: 1-worker vs N-worker scaling, SLO-gated."""
    from .analysis.serving import render_cluster_report, render_load_result
    from .analysis.tables import render_table
    from .serve import SLO, ManualClock, open_server, run_open_loop

    if args.write_fraction > 0:
        raise ReproError(
            "cluster serving is read-only; drop --workers/--replicas "
            "to bench mixed read/write traffic"
        )
    if args.shards > 1:
        raise ReproError(
            "the cluster shards by its layout (shards = workers // "
            "replicas); drop --shards, or --workers/--replicas"
        )
    config = _server_config(args, cluster=True, **_graph_source(args, as_edges=True))
    src, _, n = config.edges
    slo = SLO(p99_ms=args.slo_p99_ms)

    def run(cfg):
        router = open_server(cfg, clock=ManualClock())
        result = run_open_loop(
            router, n_requests=args.requests, num_nodes=n,
            offered_qps=args.offered_qps, slo=slo, **_traffic(args),
        )
        return router, result

    _, base = run(config.with_overrides(workers=1, replicas=1))
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
            [workers, f"{res.achieved_qps:,.0f}", f"{res.p50_ms:.3f}",
             f"{res.p95_ms:.3f}", f"{res.p99_ms:.3f}",
             "met" if res.met else "MISS"]
            for workers, res in ((1, base), (args.workers, scaled))
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
    import time

    from .analysis.serving import render_serve_report
    from .analysis.tables import render_table
    from .lsm import writable_overlay
    from .query.capabilities import capabilities
    from .serve import open_server, synthetic_workload

    if args.workers > 1 or args.replicas > 1:
        return _cmd_serve_bench_cluster(args)
    source = _server_config(args, **_graph_source(args, as_edges=False))
    store = _reshard(source.resolve_store(), args)
    if args.write_fraction > 0 and capabilities(store).supports_writes:
        raise ReproError(
            "--write-fraction overlays the store itself; pass the "
            "immutable base store, not an lsm file"
        )
    # re-derive planted edges from the store itself so half the edge
    # queries hit regardless of where the graph came from
    src_edges = _edges(store)[:2]

    def run(**batching):
        """Serve one fresh workload as fast as it can be fed."""
        workload = synthetic_workload(
            args.requests, store.num_nodes, mean_interarrival_ns=0.0,
            edges=src_edges, write_fraction=args.write_fraction,
            **_traffic(args),
        )
        # mixed traffic mutates the store, so each run gets its own
        # lsm overlay over the shared immutable base — both modes see
        # an identical starting state
        served = (writable_overlay(store, args.compact_watermark)
                  if args.write_fraction > 0 else store)
        server = open_server(
            _server_config(args, store=served, cluster=False, **batching))
        t0 = time.perf_counter()
        for _, request in workload:
            server.submit(request)
        server.drain()
        return server, time.perf_counter() - t0

    single_srv, single_s = run(max_batch_size=1, max_wait_ns=0.0)
    coal_srv, coal_s = run()
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
    from .serve import ManualClock, open_server, synthetic_workload

    cluster = args.workers > 1 or args.replicas > 1
    config = _server_config(
        args, cluster=cluster, **_graph_source(args, as_edges=cluster),
        obs=ObsConfig(enabled=True, capacity=args.capacity,
                      sample_every=args.sample_every),
    )
    clock = ManualClock()
    server = open_server(config, clock=clock)
    workload = synthetic_workload(
        args.requests, server.num_nodes, **_traffic(args),
        mean_interarrival_ns=args.wait_us * 1e3 / max(args.batch, 1),
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
