"""Seeded inputs: the pokec stand-in graph and the request streams.

Everything the program sees is generated here from ``--seed``; the
benchmark owns its generators (it does not call ``repro.datasets`` or
``repro.serve.synthetic_workload``) so a later change to the program
cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

import numpy as np

from repro.serve import EdgeRequest, NeighborsRequest, WriteRequest

# SNAP soc-pokec as published in the paper's Table II
POKEC_NODES = 1_632_803
POKEC_EDGES = 30_622_564
#: Graph500-style social R-MAT quadrant probabilities (a, b, c, d)
SOCIAL_RMAT = (0.57, 0.19, 0.19, 0.05)

# request kind codes, shared with the oracle in check.py
NEIGHBORS, EDGE, INSERT, DELETE = 0, 1, 2, 3


def pokec_standin(scale: float, seed: int):
    """R-MAT multigraph with pokec's node/edge ratio at *scale*.

    Returns ``(src, dst, n)`` sorted by (src, dst).  Duplicate edges are
    kept, as in the paper's construction input.  Low ids are the hubs.
    """
    n = max(2, round(POKEC_NODES * scale))
    m = max(1, round(POKEC_EDGES * scale))
    rng = np.random.default_rng([seed, 0xE2E])
    a, b, c, _ = SOCIAL_RMAT
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for level in range(int(np.ceil(np.log2(n)))):
        r = rng.random(m, dtype=np.float32)
        # quadrants in order a | b | c | d along [0, 1)
        src += (r >= a + b).astype(np.int64) << level
        dst += (((r >= a) & (r < a + b)) | (r >= a + b + c)).astype(np.int64) << level
    key = (src % n) * n + (dst % n)
    key.sort()
    return key // n, key % n, n


class RequestBatch:
    """One phase's requests: the objects the program is fed plus the
    plain arrays the oracle reads (``kind``, ``u``, ``v``)."""

    __slots__ = ("kind", "u", "v", "requests")

    def __init__(self, kind, u, v):
        self.kind, self.u, self.v = kind, u, v
        self.requests = [
            NeighborsRequest(node=a) if k == NEIGHBORS
            else EdgeRequest(u=a, v=b) if k == EDGE
            else WriteRequest(op="insert" if k == INSERT else "delete", u=a, v=b)
            for k, a, b in zip(kind.tolist(), u.tolist(), v.tolist())
        ]

    def __len__(self) -> int:
        return len(self.requests)


def make_requests(
    rng: np.random.Generator,
    count: int,
    n: int,
    edges,
    *,
    keys: str,
    edge_fraction: float = 0.25,
    write_fraction: float = 0.0,
    delete_fraction: float = 0.2,
) -> RequestBatch:
    """*count* requests: Zipf(1.2) or uniform keys, *edge_fraction* edge
    probes (half planted on real edges), *write_fraction* writes of
    which *delete_fraction* are deletes aimed at real edges."""
    if keys == "zipf":
        # rank r -> node r: the R-MAT hubs are the celebrities
        nodes = np.minimum(rng.zipf(1.2, 2 * count) - 1, n - 1).astype(np.int64)
    else:
        nodes = rng.integers(0, n, 2 * count, dtype=np.int64)
    u, v = nodes[0::2].copy(), nodes[1::2].copy()
    kind = np.where(rng.random(count) < edge_fraction, EDGE, NEIGHBORS)
    is_write = rng.random(count) < write_fraction
    is_delete = is_write & (rng.random(count) < delete_fraction)
    kind[is_write] = INSERT
    kind[is_delete] = DELETE
    planted = is_delete | ((kind == EDGE) & (rng.random(count) < 0.5))
    pick = rng.integers(0, edges[0].shape[0], count)
    u[planted] = edges[0][pick[planted]]
    v[planted] = edges[1][pick[planted]]
    return RequestBatch(kind, u, v)
