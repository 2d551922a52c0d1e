"""Plain-text rendering of experiment results.

Every experiment returns a list of row dictionaries; :func:`format_table`
turns them into the aligned text table the harness CLI prints, without
depending on any plotting library.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

__all__ = ["format_table"]


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def _column_order(rows: Sequence[Mapping[str, Any]],
                  columns: Sequence[str] | None) -> list[str]:
    if columns is not None:
        return list(columns)
    ordered: list[str] = []
    for row in rows:
        for key in row:
            if key not in ordered:
                ordered.append(key)
    return ordered


def format_table(rows: Sequence[Mapping[str, Any]],
                 columns: Sequence[str] | None = None, title: str | None = None) -> str:
    """Align rows into a fixed-width text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    names = _column_order(rows, columns)
    cells = [[_render_cell(row.get(name, "")) for name in names] for row in rows]
    widths = [max(len(name), *(len(line[i]) for line in cells)) for i, name in enumerate(names)]
    header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(names))
    separator = "  ".join("-" * widths[i] for i in range(len(names)))
    body = [
        "  ".join(line[i].rjust(widths[i]) for i in range(len(names)))
        for line in cells
    ]
    lines = ([title] if title else []) + [header, separator] + body
    return "\n".join(lines)
