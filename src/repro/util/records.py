"""Plain-text table/series rendering for the harness.

The paper reports results as tables (Table 1) and bar/line figures
(Figures 5-9).  We regenerate them as aligned text tables so a terminal
diff against the paper's numbers is easy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class Series:
    """A named (x, y) series, e.g. one line of a paper figure."""

    name: str
    xs: list[float] = field(default_factory=list)
    ys: list[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def as_pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.xs, self.ys))


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str | None = None,
) -> str:
    """Render an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series_table(
    series: Sequence[Series],
    *,
    x_label: str = "x",
    title: str | None = None,
    y_format: str = "{:.2f}",
) -> str:
    """Render several series sharing an x-axis as one table.

    Missing points (a series without that x) render as ``NA`` — the paper
    itself uses NA where 2PC does not support an experiment.
    """
    xs: list[float] = []
    for s in series:
        for x in s.xs:
            if x not in xs:
                xs.append(x)
    xs.sort()
    headers = [x_label] + [s.name for s in series]
    rows = []
    for x in xs:
        row: list[Any] = [x]
        for s in series:
            try:
                idx = s.xs.index(x)
                row.append(y_format.format(s.ys[idx]))
            except ValueError:
                row.append("NA")
        rows.append(row)
    return format_table(headers, rows, title=title)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)
