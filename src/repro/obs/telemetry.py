"""Per-cell campaign telemetry — wall time, sim events, events/s.

Telemetry answers the operational questions the deterministic result
payload must not: where does a campaign spend its wall clock, which
cells dominate, how fast is the simulator actually running?  Because
wall time varies run to run, telemetry lives strictly *outside* the
config hash, the stored cell objects, and ``to_canonical_json()`` —
the sweep engine records it on each :class:`~repro.sweep.engine.CellOutcome`
as a side channel, and ``runner telemetry`` summarises it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["CellTelemetry", "format_telemetry_report", "summarize_telemetry"]


@dataclass(frozen=True)
class CellTelemetry:
    """Operational measurements for one executed (or cached) cell.

    ``wall_time_s`` and ``events_per_s`` are zero for cache hits: a hit
    costs one JSON read, and folding that into throughput statistics
    would make the "how fast is the simulator" numbers meaningless.
    """

    key: str
    cached: bool
    wall_time_s: float
    sim_events: int
    events_per_s: float

    def as_dict(self) -> Dict[str, Any]:
        """The telemetry as a plain dict (for ``--json`` output)."""
        return {
            "key": self.key,
            "cached": self.cached,
            "wall_time_s": self.wall_time_s,
            "sim_events": self.sim_events,
            "events_per_s": self.events_per_s,
        }


def summarize_telemetry(
    telemetries: Sequence[Optional[CellTelemetry]], top: int = 5
) -> Dict[str, Any]:
    """Aggregate per-cell telemetry into a campaign-level summary.

    Returns totals (cells, cached/fresh split, wall time, sim events,
    overall events/s), the ``top`` slowest freshly-executed cells, and
    the events/s distribution (min/p50/p95/max) over fresh cells.
    ``None`` entries (cells recorded before telemetry existed) are
    skipped.
    """
    from repro.analysis.stats import percentile  # on call: importing repro.obs stays leaf-cheap

    cells = [t for t in telemetries if t is not None]
    fresh = [t for t in cells if not t.cached]
    cached = len(cells) - len(fresh)
    wall = sum(t.wall_time_s for t in fresh)
    sim_events = sum(t.sim_events for t in cells)
    fresh_events = sum(t.sim_events for t in fresh)
    rates = sorted(t.events_per_s for t in fresh) or [0.0]  # no fresh cell: 0.0 throughout
    slowest = sorted(fresh, key=lambda t: (-t.wall_time_s, t.key))[:top]
    return {
        "cells": len(cells),
        "cached": cached,
        "fresh": len(fresh),
        "wall_time_s": wall,
        "sim_events": sim_events,
        "events_per_s": (fresh_events / wall) if wall > 0 else 0.0,
        "slowest": [t.as_dict() for t in slowest],
        "events_per_s_distribution": {
            "min": rates[0],
            "p50": percentile(rates, 0.50),
            "p95": percentile(rates, 0.95),
            "max": rates[-1],
        },
    }


def format_telemetry_report(summary: Dict[str, Any]) -> str:
    """Render a :func:`summarize_telemetry` dict as a readable report."""
    lines = [
        "campaign telemetry",
        f"  cells: {summary['cells']} "
        f"({summary['fresh']} fresh, {summary['cached']} cached)",
        f"  wall time (fresh): {summary['wall_time_s']:.3f} s",
        f"  sim events: {summary['sim_events']}",
        f"  events/s (fresh overall): {summary['events_per_s']:,.0f}",
    ]
    dist = summary["events_per_s_distribution"]
    lines.append(
        "  events/s per fresh cell: "
        f"min {dist['min']:,.0f}  p50 {dist['p50']:,.0f}  "
        f"p95 {dist['p95']:,.0f}  max {dist['max']:,.0f}"
    )
    if summary["slowest"]:
        lines.append("  slowest fresh cells:")
        for entry in summary["slowest"]:
            lines.append(
                f"    {entry['wall_time_s']:8.3f} s  "
                f"{entry['sim_events']:>9} events  "
                f"{entry['events_per_s']:>12,.0f} ev/s  {entry['key']}"
            )
    return "\n".join(lines)
