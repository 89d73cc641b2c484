"""Text rendering of tables and figure series.

The experiments report regenerates the paper's tables and figures as
text: tables as aligned columns, CDF figures as percentile series,
boxplot figures as five-number rows.  These helpers keep the rendering
uniform across the report, the ablation benches and the CLI.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

import numpy as np

from ..stats.boxplot import BoxplotStats
from ..stats.cdf import EmpiricalCDF

__all__ = [
    "format_table",
    "format_cdf",
    "format_boxplot_rows",
    "format_duration",
    "format_bytes",
    "ascii_curve",
    "ascii_cdf",
]

Cell = Union[str, int, float]


def _fmt_cell(value: Cell) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return f"{value:,}"
    if value != value:  # NaN
        return "-"
    if isinstance(value, (float, np.floating)):
        if value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
            return f"{value:.3g}"
        return f"{value:,.2f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Cell]], title: str = "") -> str:
    """Render rows as an aligned plain-text table."""
    str_rows = [[_fmt_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_cdf(
    cdf: EmpiricalCDF,
    label: str,
    percentiles: Sequence[float] = (25, 50, 75, 90, 95, 99),
    value_formatter=None,
) -> str:
    """Render a CDF as its percentile series (a text stand-in for a curve)."""
    fmt = value_formatter or _fmt_cell
    parts = [f"p{int(p) if float(p).is_integer() else p}={fmt(cdf.percentile(p))}" for p in percentiles]
    return f"{label}: n={cdf.n} " + " ".join(parts)


def format_boxplot_rows(
    named_samples: Dict[str, Sequence[float]], title: str = "", value_formatter=None
) -> str:
    """Render named samples as boxplot five-number rows."""
    fmt = value_formatter or _fmt_cell
    rows: List[List[Cell]] = []
    for name, samples in named_samples.items():
        arr = np.asarray(samples, dtype=np.float64)
        arr = arr[np.isfinite(arr)]
        if len(arr) == 0:
            rows.append([name, "-", "-", "-", "-", "-", 0])
            continue
        bp = BoxplotStats.from_samples(arr)
        rows.append(
            [
                name,
                fmt(bp.whisker_low),
                fmt(bp.q1),
                fmt(bp.median),
                fmt(bp.q3),
                fmt(bp.whisker_high),
                bp.n,
            ]
        )
    return format_table(
        ["series", "lo", "q1", "median", "q3", "hi", "n"], rows, title=title
    )


def ascii_curve(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 60,
    height: int = 12,
    label: str = "",
    logx: bool = False,
) -> str:
    """Render an (x, y) series as a monospace dot plot.

    A lightweight stand-in for the paper's figure panels in terminal
    output: y is binned onto ``height`` rows (top row = max), x onto
    ``width`` columns (optionally log-spaced).  Axis extents are printed
    on the frame.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("xs and ys must be equal-length and non-empty")
    if width < 8 or height < 3:
        raise ValueError("width must be >= 8 and height >= 3")
    if logx:
        if np.any(x <= 0):
            raise ValueError("logx requires positive x values")
        x = np.log10(x)
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    x_span = x_hi - x_lo or 1.0
    y_span = y_hi - y_lo or 1.0
    cols = np.clip(((x - x_lo) / x_span * (width - 1)).astype(int), 0, width - 1)
    rows = np.clip(((y - y_lo) / y_span * (height - 1)).astype(int), 0, height - 1)
    grid = [[" "] * width for _ in range(height)]
    for c, r in zip(cols, rows):
        grid[height - 1 - r][c] = "*"
    lines = []
    if label:
        lines.append(label)
    lines.append(f"{_fmt_cell(y_hi):>10} +" + "-" * width + "+")
    for row in grid:
        lines.append(" " * 10 + " |" + "".join(row) + "|")
    lines.append(f"{_fmt_cell(y_lo):>10} +" + "-" * width + "+")
    left = f"{10 ** x_lo:.3g}" if logx else _fmt_cell(x_lo)
    right = f"{10 ** x_hi:.3g}" if logx else _fmt_cell(x_hi)
    lines.append(" " * 12 + left + " " * max(1, width - len(left) - len(right)) + right)
    return "\n".join(lines)


def ascii_cdf(
    cdf: EmpiricalCDF, width: int = 60, height: int = 12, label: str = "", logx: bool = False
) -> str:
    """Render an :class:`~repro.stats.cdf.EmpiricalCDF` as an ASCII curve."""
    xs, ys = cdf.series(max_points=width * 2)
    if logx:
        keep = xs > 0
        xs, ys = xs[keep], ys[keep]
        if len(xs) == 0:
            raise ValueError("logx requires positive sample values")
    return ascii_curve(xs, ys, width=width, height=height, label=label, logx=logx)


def format_duration(seconds: float) -> str:
    """Human-friendly duration: picks us/ms/s/min/h/days."""
    if seconds != seconds:
        return "-"
    if seconds < 0:
        return f"-{format_duration(-seconds)}"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    if seconds < 60:
        return f"{seconds:.1f}s"
    if seconds < 3600:
        return f"{seconds / 60:.1f}min"
    if seconds < 86400:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def format_bytes(n: float) -> str:
    """Human-friendly byte size with binary units."""
    if n != n:
        return "-"
    units = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"]
    value = float(n)
    for unit in units:
        if abs(value) < 1024 or unit == units[-1]:
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.1f}PiB"
