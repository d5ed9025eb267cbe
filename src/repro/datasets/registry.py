"""Paper datasets: true-scale metadata plus synthetic stand-ins.

The paper evaluates on four SNAP graphs that cannot ship with this
repository (and would take hours to process in pure Python at full
scale).  :data:`PAPER_GRAPHS` records their published properties —
including every Table II measurement — and :func:`standin` generates a
topology-matched synthetic graph at a configurable fraction of the
published edge count (DESIGN.md §1 documents why this preserves the
evaluation's shape).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..csr.builder import ensure_sorted
from ..errors import ValidationError
from ..utils import require
from .rmat import SOCIAL_RMAT, WEB_RMAT, rmat_edges

__all__ = ["PaperGraphSpec", "Dataset", "PAPER_GRAPHS", "standin", "paper_names"]


@dataclass(frozen=True)
class PaperGraphSpec:
    """Published properties and Table II measurements of one graph."""

    name: str
    num_nodes: int
    num_edges: int
    edgelist_bytes: int  # the paper's "EdgeList Size" column
    csr_bytes: int  # the paper's "CSR" column (bit-packed)
    times_ms: dict[int, float]  # processors -> construction time
    speedup_pct: dict[int, float]  # processors -> speed-up (%)
    rmat_params: tuple[float, float, float, float] = SOCIAL_RMAT

    @property
    def avg_degree(self) -> float:
        return self.num_edges / self.num_nodes if self.num_nodes else 0.0


_GB = 1024**3
_MB = 1024**2

PAPER_GRAPHS: dict[str, PaperGraphSpec] = {
    "livejournal": PaperGraphSpec(
        name="livejournal",
        num_nodes=4_847_571,
        num_edges=68_993_773,
        edgelist_bytes=int(1.1 * _GB),
        csr_bytes=int(24.73 * _MB),
        times_ms={1: 164.76, 4: 57.94, 8: 48.35, 16: 40.09, 64: 17.613},
        speedup_pct={4: 64.83, 8: 70.65, 16: 75.67, 64: 89.31},
    ),
    "pokec": PaperGraphSpec(
        name="pokec",
        num_nodes=1_632_803,
        num_edges=30_622_564,
        edgelist_bytes=int(405 * _MB),
        csr_bytes=int(197.83 * _MB),
        times_ms={1: 67.41, 4: 28.19, 8: 20.95, 16: 18.21, 64: 6.53},
        speedup_pct={4: 58.18, 8: 68.92, 16: 72.99, 64: 90.31},
    ),
    "orkut": PaperGraphSpec(
        name="orkut",
        num_nodes=3_072_627,
        num_edges=117_185_083,
        edgelist_bytes=int(1.7 * _GB),
        csr_bytes=int(313.19 * _MB),
        times_ms={1: 235.52, 4: 75.09, 8: 58.38, 16: 55.15, 64: 38.09},
        speedup_pct={4: 68.12, 8: 75.21, 16: 76.58, 64: 83.83},
    ),
    "webnotredame": PaperGraphSpec(
        name="webnotredame",
        num_nodes=325_729,
        num_edges=1_497_134,
        edgelist_bytes=int(22 * _MB),
        csr_bytes=int(3.82 * _MB),
        times_ms={1: 7.13, 4: 2.02, 8: 1.1, 16: 0.577, 64: 0.27},
        speedup_pct={4: 71.67, 8: 84.57, 16: 91.91, 64: 96.21},
        rmat_params=WEB_RMAT,
    ),
}


def paper_names() -> list[str]:
    """Dataset names in Table II order."""
    return list(PAPER_GRAPHS)


@dataclass(frozen=True)
class Dataset:
    """A concrete edge list ready for the builders (sorted by (u, v))."""

    name: str
    sources: np.ndarray
    destinations: np.ndarray
    num_nodes: int
    paper: PaperGraphSpec | None = None
    meta: dict = field(default_factory=dict)

    @property
    def num_edges(self) -> int:
        return self.sources.shape[0]

    @property
    def avg_degree(self) -> float:
        return self.num_edges / self.num_nodes if self.num_nodes else 0.0


def standin(
    name: str,
    *,
    scale: float = 1 / 64,
    seed: int = 2023,
) -> Dataset:
    """A topology-matched synthetic stand-in for a paper graph.

    ``scale`` is the fraction of the published edge count to generate;
    node count scales by the same factor (rounded up to a power of two
    for the R-MAT recursion, then folded back down by modulo so the
    average degree matches the original).
    """
    try:
        spec = PAPER_GRAPHS[name]
    except KeyError:
        known = ", ".join(PAPER_GRAPHS)
        raise ValidationError(f"unknown paper graph '{name}' (known: {known})") from None
    require(0 < scale <= 1.0, "scale must be in (0, 1]")
    rng = np.random.default_rng(seed)
    target_nodes = max(2, int(round(spec.num_nodes * scale)))
    target_edges = max(1, int(round(spec.num_edges * scale)))
    log_scale = max(1, int(np.ceil(np.log2(target_nodes))))
    src, dst, _ = rmat_edges(
        log_scale, target_edges, params=spec.rmat_params, rng=rng
    )
    src = src % target_nodes
    dst = dst % target_nodes
    src, dst = ensure_sorted(src, dst)
    return Dataset(
        name=name,
        sources=src,
        destinations=dst,
        num_nodes=target_nodes,
        paper=spec,
        meta={"scale": scale, "seed": seed, "generator": "rmat"},
    )
