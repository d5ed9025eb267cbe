"""Runnable reproductions of the paper's evaluation artifacts.

One entry point per table/figure (see DESIGN.md's per-experiment
index).  Both the pytest benches and the examples call these, so the
numbers printed in ``bench_output.txt`` and the numbers a user gets
from ``examples/parallel_scaling_report.py`` are the same code path.

Times come from the :class:`SimulatedMachine` (DESIGN.md §1 explains
the substitution); sizes are measured on the synthetic stand-ins and
*also* projected to the published node/edge counts via the closed-form
memory model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..csr.io import edge_list_text_size
from ..csr.packed import build_bitpacked_csr
from ..datasets.registry import PAPER_GRAPHS, Dataset, standin
from ..parallel.cost import CostModel, DEFAULT_COST_MODEL
from ..parallel.machine import SimulatedMachine
from ..utils import human_bytes
from .memory import (
    measured_edge_bits,
    projected_edgelist_text_bytes,
    projected_packed_csr_bytes,
    projected_packed_csr_bytes_measured,
)
from .speedup import SpeedupCurve, speedup_percent
from .tables import render_series, render_table

__all__ = [
    "DEFAULT_PROCESSORS",
    "FIG6_PROCESSORS",
    "Table2Row",
    "Table2Result",
    "run_table2",
    "run_fig6",
    "fig7_from_fig6",
    "render_fig6",
    "render_fig7",
]

DEFAULT_PROCESSORS = (1, 4, 8, 16, 64)  # Table II's sweep
FIG6_PROCESSORS = (1, 2, 4, 8, 16, 32, 64)  # Figure 6's denser sweep
_DEFAULT_SCALE = 1 / 64
_DEFAULT_MIN_EDGES = 400_000


def _effective_scale(name: str, scale: float, min_edges: int) -> float:
    """Per-graph scale: the requested fraction, floored so small paper
    graphs (WebNotreDame) keep enough edges for parallelism to matter —
    at a few thousand edges the barrier overheads dominate and no
    machine, real or simulated, shows the paper's curves."""
    spec = PAPER_GRAPHS[name]
    if min_edges <= 0 or spec.num_edges <= 0:
        return scale
    return min(1.0, max(scale, min_edges / spec.num_edges))


@dataclass(frozen=True)
class Table2Row:
    """One (graph, processors) measurement, mirroring Table II columns."""

    graph: str
    num_nodes: int
    num_edges: int
    edgelist_bytes: int
    csr_bytes: int
    processors: int
    time_ms: float
    speedup_pct: float | None  # None on the p=1 row, like the paper's "-"


@dataclass
class Table2Result:
    """All rows plus the datasets and model that produced them."""

    rows: list[Table2Row]
    scale: float
    cost_model: CostModel
    datasets: dict[str, Dataset] = field(default_factory=dict)
    edge_bits: dict[str, float] = field(default_factory=dict)

    def times(self, graph: str) -> dict[int, float]:
        """The (processors -> ms) series measured for *graph*."""
        return {
            r.processors: r.time_ms for r in self.rows if r.graph == graph
        }

    def render(self) -> str:
        """The result as an aligned text table."""
        headers = [
            "Graph",
            "# Nodes",
            "# Edges",
            "EdgeList Size",
            "CSR",
            "# Proc",
            "Time (ms)",
            "Speed-Up (%)",
        ]
        out_rows = []
        last = None
        for r in self.rows:
            first_of_graph = r.graph != last
            last = r.graph
            out_rows.append(
                [
                    r.graph if first_of_graph else "",
                    f"{r.num_nodes:,}" if first_of_graph else "",
                    f"{r.num_edges:,}" if first_of_graph else "",
                    human_bytes(r.edgelist_bytes) if first_of_graph else "",
                    human_bytes(r.csr_bytes) if first_of_graph else "",
                    r.processors,
                    r.time_ms,
                    "-" if r.speedup_pct is None else f"{r.speedup_pct:.2f}",
                ]
            )
        return render_table(
            headers,
            out_rows,
            title=(
                f"Table II (stand-ins at scale {self.scale:g} of paper edge counts; "
                f"times from the simulated machine)"
            ),
        )

    def render_projection(self) -> str:
        """Size columns projected to the published graph scales.

        The closed-form ``proj. CSR`` charges every edge the worst-case
        fixed width; when the run measured bits/edge (always, since the
        stores report it) a ``proj. CSR (meas.)`` column extrapolates
        the *measured* edge width instead, so orderings and adaptive
        codecs show up in the paper-scale numbers.
        """
        headers = ["Graph", "paper EdgeList", "proj. EdgeList", "paper CSR", "proj. CSR"]
        if self.edge_bits:
            headers.append("proj. CSR (meas.)")
        rows = []
        for name, spec in PAPER_GRAPHS.items():
            if name not in {r.graph for r in self.rows}:
                continue
            row = [
                name,
                human_bytes(spec.edgelist_bytes),
                human_bytes(
                    projected_edgelist_text_bytes(spec.num_nodes, spec.num_edges)
                ),
                human_bytes(spec.csr_bytes),
                human_bytes(
                    projected_packed_csr_bytes(spec.num_nodes, spec.num_edges)
                ),
            ]
            if self.edge_bits:
                row.append(
                    human_bytes(
                        projected_packed_csr_bytes_measured(
                            spec.num_nodes, spec.num_edges, self.edge_bits[name]
                        )
                    )
                    if name in self.edge_bits
                    else "-"
                )
            rows.append(row)
        return render_table(
            headers, rows, title="Size columns projected to paper scale"
        )


def _measure_build(dataset: Dataset, p: int, cost_model: CostModel) -> float:
    machine = SimulatedMachine(p, cost_model)
    build_bitpacked_csr(
        dataset.sources, dataset.destinations, dataset.num_nodes, machine
    )
    return machine.elapsed_ms()


def run_table2(
    *,
    scale: float = _DEFAULT_SCALE,
    processors: tuple[int, ...] = DEFAULT_PROCESSORS,
    seed: int = 2023,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    graphs: tuple[str, ...] | None = None,
    min_edges: int = _DEFAULT_MIN_EDGES,
    store_kind: str = "packed",
    store_opts: dict | None = None,
) -> Table2Result:
    """Reproduce Table II on synthetic stand-ins.

    For every graph: generate the stand-in, measure the exact text
    edge-list size and the size of a built *store_kind* store (any
    registered kind — ``"compact"`` or ``"reordered"`` measure the
    compact pipeline's footprint), then run the full Section III
    pipeline once per processor count on the simulated machine.  The
    measured bits/edge land in :attr:`Table2Result.edge_bits` and feed
    the measured paper-scale projection.
    """
    from ..stores import open_store

    names = list(graphs) if graphs else list(PAPER_GRAPHS)
    if 1 not in processors:
        processors = (1, *processors)
    result = Table2Result(rows=[], scale=scale, cost_model=cost_model)
    for name in names:
        ds = standin(name, scale=_effective_scale(name, scale, min_edges), seed=seed)
        result.datasets[name] = ds
        el_bytes = edge_list_text_size(ds.sources, ds.destinations)
        packed = open_store(
            store_kind, ds.sources, ds.destinations, ds.num_nodes,
            sort=True, **(store_opts or {}),
        )
        csr_bytes = packed.memory_bytes()
        result.edge_bits[name] = measured_edge_bits(packed)
        t1 = None
        for p in processors:
            t = _measure_build(ds, p, cost_model)
            if p == 1:
                t1 = t
            result.rows.append(
                Table2Row(
                    graph=name,
                    num_nodes=ds.num_nodes,
                    num_edges=ds.num_edges,
                    edgelist_bytes=el_bytes,
                    csr_bytes=csr_bytes,
                    processors=p,
                    time_ms=t,
                    speedup_pct=None if p == 1 else speedup_percent(t1, t),
                )
            )
    return result


def run_fig6(
    *,
    scale: float = _DEFAULT_SCALE,
    processors: tuple[int, ...] = FIG6_PROCESSORS,
    seed: int = 2023,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    graphs: tuple[str, ...] | None = None,
    min_edges: int = _DEFAULT_MIN_EDGES,
) -> dict[str, SpeedupCurve]:
    """Figure 6 — construction time vs processor count, per graph."""
    names = list(graphs) if graphs else list(PAPER_GRAPHS)
    if 1 not in processors:
        processors = (1, *processors)
    curves: dict[str, SpeedupCurve] = {}
    for name in names:
        ds = standin(name, scale=_effective_scale(name, scale, min_edges), seed=seed)
        times = {p: _measure_build(ds, p, cost_model) for p in processors}
        curves[name] = SpeedupCurve(name, times)
    return curves


def fig7_from_fig6(curves: dict[str, SpeedupCurve]) -> dict[str, dict[int, float]]:
    """Figure 7 — the paper's speed-up percentages, derived from Fig 6."""
    return {name: curve.percent() for name, curve in curves.items()}


def render_fig6(curves: dict[str, SpeedupCurve]) -> str:
    """Figure 6 as a text series table with sparklines."""
    series = {name: dict(sorted(c.times_ms.items())) for name, c in curves.items()}
    return render_series(
        "Figure 6: construction time (ms) vs processors",
        series,
        y_label="graph",
    )


def render_fig7(curves: dict[str, SpeedupCurve]) -> str:
    """Figure 7 (speed-up %%) with the paper's points overlaid."""
    series = fig7_from_fig6(curves)
    paper_series = {
        f"{name} (paper)": dict(sorted(PAPER_GRAPHS[name].speedup_pct.items()))
        for name in series
        if name in PAPER_GRAPHS
    }
    return render_series(
        "Figure 7: speed-up (%) vs processors — measured and paper",
        {**series, **paper_series},
        y_label="graph",
    )
