"""Plain-text rendering of tables and figure series.

The benches regenerate the paper's artifacts as terminal text: aligned
tables for Table II and ASCII series/sparklines for the figures.  Kept
dependency-free so benchmark output works everywhere.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ValidationError

__all__ = ["render_table", "render_series", "sparkline", "format_value"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def format_value(value) -> str:
    """Human formatting: floats to 3 significant-ish places, rest str()."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    *,
    title: str = "",
) -> str:
    """Render an aligned text table (right-aligned numeric columns)."""
    if not headers:
        raise ValidationError("table needs headers")
    str_rows = [[format_value(cell) for cell in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise ValidationError(f"row {i} has {len(row)} cells, expected {len(headers)}")
    widths = [len(h) for h in headers]
    for row in str_rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    numeric_col = [
        all(_is_numeric(row[j]) for row in str_rows) if str_rows else False
        for j in range(len(headers))
    ]

    def fmt_row(cells, *, header=False) -> str:
        out = []
        for j, cell in enumerate(cells):
            if numeric_col[j] and not header:
                out.append(cell.rjust(widths[j]))
            else:
                out.append(cell.ljust(widths[j]))
        return "  ".join(out).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers), header=True))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell.replace(",", ""))
        return True
    except ValueError:
        return False


def sparkline(values: Sequence[float]) -> str:
    """Unicode block sparkline of a numeric series."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return _BLOCKS[0] * len(vals)
    span = hi - lo
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, int((v - lo) / span * (len(_BLOCKS) - 1)))]
        for v in vals
    )


def render_series(
    title: str,
    series: dict[str, dict[int, float]],
    *,
    x_label: str = "p",
    y_label: str = "value",
) -> str:
    """Render named (x -> y) curves as a table plus sparklines.

    This is the textual stand-in for the paper's line figures (Figs 6
    and 7): one row per curve, columns per x, sparkline at the end.
    """
    if not series:
        raise ValidationError("series must be non-empty")
    xs = sorted({x for curve in series.values() for x in curve})
    headers = [f"{y_label} \\ {x_label}"] + [str(x) for x in xs] + ["trend"]
    rows = []
    for name, curve in series.items():
        cells = [name]
        vals = []
        for x in xs:
            if x in curve:
                cells.append(format_value(curve[x]))
                vals.append(curve[x])
            else:
                cells.append("-")
        cells.append(sparkline(vals))
        rows.append(cells)
    return render_table(headers, rows, title=title)
