"""Plain-text report formatting.

The benchmark harness prints the same rows/series the paper's figures show;
these helpers keep that output consistent and readable in a terminal.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.analysis.cdf import Cdf

DEFAULT_FRACTIONS = (0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Format a simple left-aligned text table."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells)).rstrip()
    output = [line(list(headers)), line(["-" * width for width in widths])]
    output.extend(line(row) for row in materialised)
    return "\n".join(output)


def format_cdf_table(cdfs: Mapping[str, Cdf], unit: str = "s") -> str:
    """Tabulate several CDFs at the cumulative fractions of :data:`DEFAULT_FRACTIONS`."""
    headers = ["percentile"] + [label for label in cdfs]
    rows = []
    for fraction in DEFAULT_FRACTIONS:
        row = [f"p{int(fraction * 100):02d}"]
        for label, cdf in cdfs.items():
            row.append(f"{cdf.percentile(fraction):.3f}{unit}" if len(cdf) else "-")
        rows.append(row)
    mean_row = ["mean"]
    for label, cdf in cdfs.items():
        mean_row.append(f"{cdf.mean:.3f}{unit}" if len(cdf) else "-")
    rows.append(mean_row)
    return format_table(headers, rows)
