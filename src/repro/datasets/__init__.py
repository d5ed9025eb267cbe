"""Workload generators and the paper-graph registry (DESIGN.md §1)."""

from .ba import ba_edges
from .er import er_edges
from .registry import (
    PAPER_GRAPHS,
    Dataset,
    PaperGraphSpec,
    paper_names,
    standin,
)
from .rmat import SOCIAL_RMAT, WEB_RMAT, rmat_edges, rmat_scale
from .temporal import churn_events
from .ws import ws_edges

__all__ = [
    "ba_edges",
    "er_edges",
    "PAPER_GRAPHS",
    "Dataset",
    "PaperGraphSpec",
    "paper_names",
    "standin",
    "SOCIAL_RMAT",
    "WEB_RMAT",
    "rmat_edges",
    "rmat_scale",
    "churn_events",
    "ws_edges",
]
