"""Shared helper for the paper-figure benches.

Every bench regenerates the rows/series of one paper table or figure and
prints the rendered table to stdout. Speed is measured by
``benchmarks/stack``, not here.
"""

from __future__ import annotations

from typing import Sequence

from repro.eval.reporting import format_table


def emit_table(
    name: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str,
) -> str:
    """Render and print one reproduction table (stdout only)."""
    del name  # kept for call-site compatibility
    text = format_table(headers, rows, title=title)
    print("\n" + text)
    return text
