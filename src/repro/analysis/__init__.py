"""Analysis & reproduction harness: memory model, speed-up math, tables."""

from .compare import (
    ShapeCheck,
    check_fig6,
    check_fig7,
    check_table2,
    render_checks,
)
from .experiments import (
    DEFAULT_PROCESSORS,
    FIG6_PROCESSORS,
    Table2Result,
    Table2Row,
    fig7_from_fig6,
    render_fig6,
    render_fig7,
    run_fig6,
    run_table2,
)
from .obs import render_flamegraph, render_rollup, render_span_tree
from .memory import (
    StoreFootprint,
    footprint,
    projected_dense_matrix_bytes,
    projected_edgelist_binary_bytes,
    projected_edgelist_text_bytes,
    projected_packed_csr_bytes,
    projected_raw_csr_bytes,
)
from .speedup import (
    SpeedupCurve,
    amdahl_fit,
    efficiency,
    speedup_percent,
    speedup_ratio,
)
from .serving import (
    render_cache_stats,
    render_lsm_stats,
    render_serve_histograms,
    render_serve_metrics,
    render_serve_report,
)
from .tables import format_value, render_series, render_table, sparkline

__all__ = [
    "ShapeCheck",
    "check_fig6",
    "check_fig7",
    "check_table2",
    "render_checks",
    "DEFAULT_PROCESSORS",
    "FIG6_PROCESSORS",
    "Table2Result",
    "Table2Row",
    "fig7_from_fig6",
    "render_fig6",
    "render_fig7",
    "run_fig6",
    "run_table2",
    "StoreFootprint",
    "footprint",
    "projected_dense_matrix_bytes",
    "projected_edgelist_binary_bytes",
    "projected_edgelist_text_bytes",
    "projected_packed_csr_bytes",
    "projected_raw_csr_bytes",
    "SpeedupCurve",
    "amdahl_fit",
    "efficiency",
    "speedup_percent",
    "speedup_ratio",
    "format_value",
    "render_series",
    "render_table",
    "sparkline",
    "render_cache_stats",
    "render_lsm_stats",
    "render_serve_histograms",
    "render_serve_metrics",
    "render_serve_report",
    "render_flamegraph",
    "render_rollup",
    "render_span_tree",
]
