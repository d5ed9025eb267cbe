#!/usr/bin/env python
"""Social-network analytics on a compressed graph.

The introduction's motivating questions — "who are all the
acquaintances of a given user?", "is there a connection between two
individuals?", "how would a user's influence spread?" — answered on a
LiveJournal-like stand-in without ever decompressing the store.

Run:  python examples/social_network_queries.py
"""

import numpy as np

from repro import SimulatedMachine, build_csr
from repro.csr import BitPackedCSR, bfs_levels, degree_histogram
from repro.datasets import standin
from repro.query import QueryEngine
from repro.utils import human_bytes

# A 1/256-scale LiveJournal stand-in (same topology class + degree).
ds = standin("livejournal", scale=1 / 256, seed=7)
print(f"dataset: {ds.name} stand-in, {ds.num_nodes:,} nodes, {ds.num_edges:,} edges")

machine = SimulatedMachine(16)
graph = build_csr(ds.sources, ds.destinations, ds.num_nodes, machine)
packed = BitPackedCSR.from_csr(graph, machine)
print(f"raw CSR {human_bytes(graph.memory_bytes())} -> "
      f"packed {human_bytes(packed.memory_bytes())}")

# -- degree structure: is this a social network? ----------------------
values, counts = degree_histogram(graph)
top = np.argsort(-values)[:1]
print(f"degree range 0..{values.max()}; "
      f"{counts[values <= 2].sum():,} nodes with degree <= 2 (heavy tail)")

# -- acquaintances of the most-followed user --------------------------
engine = QueryEngine(packed, SimulatedMachine(8))
celebrity = int(np.argmax(graph.degrees()))
friends = engine.neighbors([celebrity])[0]
print(f"celebrity node {celebrity}: {len(friends):,} direct neighbours")

# friends-of-friends: one batched read of every friend's row
fof = np.unique(packed.neighbors_batch(friends)[0])
print(f"  two-hop audience: {len(fof):,} nodes "
      f"({len(fof) / graph.num_nodes:.1%} of the graph)")

# -- connection checks, batched across processors ---------------------
rng = np.random.default_rng(1)
pairs = [(celebrity, int(v)) for v in rng.choice(friends, size=3)] + [
    (celebrity, int(rng.integers(0, graph.num_nodes))) for _ in range(3)
]
for (u, v), connected in zip(pairs, engine.has_edges(pairs)):
    print(f"  connected({u}, {v}) = {bool(connected)}")

# -- influence spread: BFS levels from the celebrity ------------------
levels = bfs_levels(graph, celebrity, SimulatedMachine(8))
reached = levels >= 0
print("influence spread (BFS hops):")
for hop in range(1, int(levels.max()) + 1):
    print(f"  <= {hop} hops: {(reached & (levels <= hop)).sum():,} nodes")
