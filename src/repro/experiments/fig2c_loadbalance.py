"""Figure 2c — smarter exploitation of flow-based load balancing.

A 100 MB transfer crosses two routers that ECMP-hash every subflow onto one
of four 8 Mbps paths (delays 10/20/30/40 ms).  The client opens five
subflows.  With the in-kernel ndiffports strategy the random source ports
may hash several subflows onto the same path, producing the paper's three
completion-time clusters (~28 s with four distinct paths, ~37 s with three,
~55 s with two).  The Refresh controller measures each subflow's pacing
rate every 2.5 s, removes the slowest one and opens a replacement, so it
converges onto all four paths and concentrates near the optimum.

A full-size run (dozens of seeds at 100 MB) is expensive in pure Python;
``scale`` shrinks the transferred volume proportionally (completion times
scale accordingly) and is reported in the result.

The figure is the ``fig2c`` named grid: the bulk workload on the ``ecmp``
scenario, ten seeds under ``ndiffports`` and ten under ``refresh``.  Each
cell stores its ``completion_time`` and, from the trace probe,
``paths_used`` (how many of the four paths carried data).  This module runs
that campaign and formats the two controllers' cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.cdf import Cdf
from repro.analysis.report import format_cdf_table, format_table
from repro.experiments.grids import named_grid
from repro.sweep.backends import usable_cpus
from repro.sweep.engine import run_campaign

FULL_FILE_BYTES = 100 * 1024 * 1024


def _completion_cdf(cells: list[dict[str, Any]], label: str) -> Cdf:
    """The CDF of the cells' completion times (unfinished cells left out)."""
    return Cdf([cell["completion_time"] for cell in cells if cell["completion_time"]], label=label)


@dataclass
class Fig2cResult:
    """The stored metrics of every ndiffports and refresh cell, and the
    completion-time CDF of each controller."""

    ndiffports: list[dict[str, Any]]
    refresh: list[dict[str, Any]]
    cdf_ndiffports: Cdf
    cdf_refresh: Cdf
    file_bytes: int
    scale: float

    def format_report(self) -> str:
        """Text rendering of the per-variant CDFs (paper Figure 2c)."""
        rows = []
        for variant, cells in (("ndiffports", self.ndiffports), ("refresh", self.refresh)):
            for paths in (4, 3, 2, 1):
                count = sum(1 for cell in cells if cell["paths_used"] == paths)
                if count:
                    rows.append([variant, paths, count])
        return "\n".join([
            "Figure 2c - CDF of transfer completion time over 4 ECMP paths",
            f"file size: {self.file_bytes / 1e6:.1f} MB (scale {self.scale:.3f} of the paper's 100 MB)",
            format_cdf_table({"ndiffports": self.cdf_ndiffports, "refresh": self.cdf_refresh}, unit="s"),
            "ECMP paths that carried data:",
            format_table(["variant", "paths", "runs"], rows),
            "expectation: ndiffports clusters by the number of distinct paths its subflows hit; "
            "the refresh controller concentrates near the all-paths optimum",
        ])


def run_fig2c(
    seed: int = 1,
    seeds: int = 10,
    scale: float = 0.1,
) -> Fig2cResult:
    """Run the ``fig2c`` grid under campaign seed ``seed`` (Figure 2c).

    ``seeds`` cells per controller; ``scale`` is the fraction of the
    paper's 100 MB transfer, with a horizon of ``max(60, 130·scale + 30)``
    seconds (the paper's worst case is ~112 s at full size, everything on
    one path).  At the defaults this is ``runner sweep --grid fig2c``'s plan.
    The cells run on every usable CPU; what they store does not depend on
    the worker count.
    """
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale!r}")
    file_bytes = int(FULL_FILE_BYTES * scale)
    grid = named_grid("fig2c", seed)
    grid.seeds = seeds
    grid.params.update(transfer_bytes=file_bytes, horizon=max(60.0, 130.0 * scale + 30.0))
    cells: dict[str, list[dict[str, Any]]] = {"ndiffports": [], "refresh": []}
    for cell in run_campaign(grid, workers=usable_cpus()).cells:
        cells[cell.spec.controller].append(cell.result)
    return Fig2cResult(
        ndiffports=cells["ndiffports"],
        refresh=cells["refresh"],
        cdf_ndiffports=_completion_cdf(cells["ndiffports"], "ndiffports"),
        cdf_refresh=_completion_cdf(cells["refresh"], "refresh"),
        file_bytes=file_bytes,
        scale=scale,
    )
