"""Figure 3 — userspace path-manager overhead.

The client issues consecutive HTTP GET requests for a 512 KB object over a
direct gigabit link.  Each request opens a fresh MPTCP connection, and the
path manager (in-kernel ndiffports vs. the userspace ndiffports controller)
opens a second subflow as soon as the connection is established.  The
metric is the delay between the SYN carrying MP_CAPABLE and the SYN
carrying MP_JOIN, measured from the packet trace — precisely what the
paper's Figure 3 plots.  The userspace variant pays two Netlink crossings
plus the controller's processing time, which showed up as ~23 µs of extra
delay on the paper's hardware (and stayed below 37 µs under CPU stress).

The figure is the ``fig3`` named grid: one ``http``/``lan`` cell per path
manager, whose trace probe stores the delays as ``mp_join_samples`` and
``join_delay_us_*``.  This module runs that campaign and formats the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.report import format_table
from repro.experiments.grids import named_grid
from repro.sweep.backends import usable_cpus
from repro.sweep.engine import run_campaign

#: The delay statistics the report prints per path manager, in µs.
_STATS = ("mean", "p50", "p95", "min", "max")


@dataclass
class Fig3Result:
    """The stored metrics of the in-kernel and the userspace ndiffports cell."""

    kernel: dict[str, Any]
    userspace: dict[str, Any]
    requests: int
    stressed: bool

    @property
    def mean_overhead(self) -> float:
        """Mean extra delay of the userspace path manager, in seconds."""
        return (self.userspace["join_delay_us_mean"] - self.kernel["join_delay_us_mean"]) * 1e-6

    @property
    def median_overhead(self) -> float:
        """Median extra delay of the userspace path manager, in seconds."""
        return (self.userspace["join_delay_us_p50"] - self.kernel["join_delay_us_p50"]) * 1e-6

    def format_report(self) -> str:
        """The two cells' delay summaries (paper Figure 3) and the overhead."""
        rows = [
            [label, metrics["mp_join_samples"]]
            + [f"{metrics[f'join_delay_us_{stat}']:.2f}" for stat in _STATS]
            for label, metrics in (("kernel PM", self.kernel), ("userspace PM", self.userspace))
        ]
        return "\n".join([
            "Figure 3 - delay between the MP_CAPABLE SYN and the MP_JOIN SYN (us)",
            format_table(["path manager", "n", *_STATS], rows),
            f"mean userspace overhead: {self.mean_overhead * 1e6:.1f} us "
            f"(median {self.median_overhead * 1e6:.1f} us) over {self.requests} requests"
            + (" [CPU stressed]" if self.stressed else ""),
        ])


def run_fig3(seed: int = 1, request_count: int = 200, stressed: bool = False) -> Fig3Result:
    """Run the ``fig3`` grid under campaign seed ``seed`` (Figure 3).

    ``request_count`` overrides the grid's 200 requests with a horizon of
    0.1 s per request plus 10 s; ``stressed`` adds ``cpu_stress`` to both
    cells.  At the defaults this is ``runner sweep --grid fig3``'s plan.
    The cells run on every usable CPU; what they store does not depend on
    the worker count.
    """
    grid = named_grid("fig3", seed)
    grid.params.update(request_count=request_count, horizon=request_count / 10 + 10.0)
    if stressed:
        grid.params["cpu_stress"] = True
    cells = {
        cell.spec.controller: cell.result
        for cell in run_campaign(grid, workers=usable_cpus()).cells
    }
    return Fig3Result(cells["ndiffports"], cells["userspace_ndiffports"], request_count, stressed)
