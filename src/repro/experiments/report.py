"""Plain-text rendering helpers for experiment results.

Every experiment ships a ``render()`` that prints the same rows/series
the paper's table or figure reports, as terminal-friendly text: aligned
tables and unicode sparklines for time series.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def text_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
               title: Optional[str] = None) -> str:
    """Render an aligned monospace table."""
    columns = len(headers)
    widths = [len(header) for header in headers]
    for row in rows:
        for index in range(columns):
            cell = str(row[index]) if index < len(row) else ""
            widths[index] = max(widths[index], len(cell))

    def format_row(cells: Sequence[str]) -> str:
        padded = [
            str(cells[index] if index < len(cells) else "").ljust(widths[index])
            for index in range(columns)
        ]
        return "  ".join(padded).rstrip()

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(format_row(headers))
    lines.append(format_row(["-" * width for width in widths]))
    for row in rows:
        lines.append(format_row([str(cell) for cell in row]))
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 72) -> str:
    """Render a series as a unicode sparkline, downsampled to ``width``."""
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        return "(empty series)"
    if data.size > width:
        # Average into `width` buckets.
        edges = np.linspace(0, data.size, width + 1).astype(int)
        data = np.array([
            data[edges[i]:edges[i + 1]].mean() if edges[i + 1] > edges[i] else 0.0
            for i in range(width)
        ])
    peak = data.max()
    if peak <= 0:
        return _SPARK_LEVELS[0] * len(data)
    indices = np.minimum(
        (data / peak * (len(_SPARK_LEVELS) - 1)).round().astype(int),
        len(_SPARK_LEVELS) - 1,
    )
    return "".join(_SPARK_LEVELS[index] for index in indices)


# Cell text for a statistic whose every trial was quarantined: an
# explicit marker instead of the NaN an empty mean would render.
QUARANTINED = "n=0 (quarantined)"


def mean_or_none(values: Sequence[float]) -> Optional[float]:
    """Mean of ``values``, or None when no trial survived."""
    return float(np.mean(values)) if len(values) else None


def format_cell(value: Optional[float], spec: str) -> str:
    """``value`` formatted by ``spec``, or :data:`QUARANTINED` for None."""
    return QUARANTINED if value is None else format(value, spec)


def format_count(value: float) -> str:
    """Human-readable count with thousands separators."""
    return f"{value:,.0f}"


def format_percent(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}%"
