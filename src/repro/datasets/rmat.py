"""R-MAT / Kronecker power-law graph generator.

The standard stand-in for social-network topology: each edge picks a
quadrant of the adjacency matrix per recursion level with probabilities
``(a, b, c, d)``, yielding the heavy-tailed degree distributions of
LiveJournal/Pokec/Orkut-class graphs.  Fully vectorised: one pass over
an ``(m,)`` array per level, ``scale`` levels total.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..utils import require

__all__ = ["rmat_edges", "rmat_scale", "SOCIAL_RMAT", "WEB_RMAT"]

# canonical parameter sets
SOCIAL_RMAT = (0.57, 0.19, 0.19, 0.05)  # Graph500-style social skew
WEB_RMAT = (0.45, 0.25, 0.15, 0.15)  # milder skew, web-graph-ish


def rmat_scale(num_nodes: int) -> int:
    """The R-MAT ``scale`` whose ``2**scale`` ids cover *num_nodes*."""
    return max(1, int(np.ceil(np.log2(max(2, num_nodes)))))


def rmat_edges(
    scale: int,
    num_edges: int,
    *,
    params: tuple[float, float, float, float] = SOCIAL_RMAT,
    rng: np.random.Generator | None = None,
    dedup: bool = False,
    self_loops: bool = True,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Generate an R-MAT edge list over ``n = 2**scale`` nodes.

    Parameters
    ----------
    scale:
        log2 of the node count (1..31).
    num_edges:
        Edges to draw (before optional dedup).
    params:
        Quadrant probabilities (a, b, c, d); must sum to ~1.
    dedup:
        Drop duplicate (u, v) pairs.  Off by default — the paper's
        construction tolerates multigraphs and Table II counts raw
        edges.
    self_loops:
        Keep u == v edges (dropped when False).

    Returns ``(sources, destinations, n)``; the edge list is *not*
    sorted (builders sort or require sorted input explicitly).
    """
    require(1 <= scale <= 31, "scale must be in [1, 31]")
    require(num_edges >= 0, "num_edges must be non-negative")
    a, b, c, d = params
    total = a + b + c + d
    if abs(total - 1.0) > 1e-6:
        raise ValidationError(f"RMAT params must sum to 1, got {total}")
    if min(a, b, c, d) < 0:
        raise ValidationError("RMAT params must be non-negative")
    rng = rng or np.random.default_rng()

    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    # per level: choose quadrant with P(a)=top-left, P(b)=top-right,
    # P(c)=bottom-left, P(d)=bottom-right; set the level's bit.
    p_top = a + b  # probability the source bit stays 0
    # conditional probability the destination bit is 1
    for level in range(scale):
        r_src = rng.random(num_edges)
        r_dst = rng.random(num_edges)
        src_bit = r_src >= p_top
        p_right = np.where(src_bit, d / (c + d) if (c + d) else 0.0,
                           b / (a + b) if (a + b) else 0.0)
        dst_bit = r_dst < p_right
        bit = np.int64(1 << level)
        src += src_bit.astype(np.int64) * bit
        dst += dst_bit.astype(np.int64) * bit

    if not self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if dedup:
        keys = (src.astype(np.uint64) << np.uint64(32)) | dst.astype(np.uint64)
        _, first = np.unique(keys, return_index=True)
        first.sort()
        src, dst = src[first], dst[first]
    return src, dst, 1 << scale
