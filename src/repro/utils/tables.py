"""Plain-text table rendering for the reproduction's reports.

``repro-report`` and the examples print every paper table or figure
they regenerate with :func:`format_table`, so their output reads like
the paper's evaluation section.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["format_table"]


def _cell(value: object, spec: str | None) -> str:
    if spec is not None and isinstance(value, (int, float)) and not isinstance(value, bool):
        return format(value, spec)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
    formats: Sequence[str | None] | None = None,
) -> str:
    """Render an aligned ASCII table.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Iterable of row tuples; each must have ``len(headers)`` entries.
    title:
        Optional caption printed above the table.
    formats:
        Optional per-column format specs (e.g. ``".2f"``) applied to
        numeric cells.
    """
    headers = [str(h) for h in headers]
    ncol = len(headers)
    if formats is None:
        formats = [None] * ncol
    if len(formats) != ncol:
        raise ValueError(f"formats has {len(formats)} entries for {ncol} columns")

    str_rows: list[list[str]] = []
    for row in rows:
        row = list(row)
        if len(row) != ncol:
            raise ValueError(f"row {row!r} has {len(row)} cells, expected {ncol}")
        str_rows.append([_cell(v, formats[i]) for i, v in enumerate(row)])

    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip()

    sep = "  ".join("-" * w for w in widths)
    out: list[str] = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append(sep)
    out.extend(line(r) for r in str_rows)
    return "\n".join(out)
