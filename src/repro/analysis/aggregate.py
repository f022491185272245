"""Campaign-level aggregation of per-cell sweep metrics.

The sweep engine produces one metrics dict per cell; these helpers group
cells by any combination of grid axes and reduce a chosen metric into
:class:`SummaryStats` percentile rows or :class:`Cdf` comparisons, which
the campaign report then renders with the existing table formatters.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.analysis.cdf import Cdf
from repro.analysis.stats import SummaryStats, percentile, summarize

#: The grid axes cells can be grouped by.
GROUP_AXES = ("experiment", "scenario", "scheduler", "controller", "connections")

#: The statistics :func:`fold_series` emits, in output order.  This order
#: is a compatibility surface: the AggregateProbe's metric keys — and
#: therefore the canonical campaign JSON — follow it.
AGGREGATE_STATS = ("sum", "mean", "p50", "p95", "min", "max")


def validate_axes(by: Sequence[str]) -> None:
    """Reject grouping axes that are not grid axes (shared by all groupers)."""
    for axis in by:
        if axis not in GROUP_AXES:
            raise ValueError(f"unknown grouping axis {axis!r} (expected one of {GROUP_AXES})")


def _axis_value(cell, axis: str) -> str:
    spec = cell.spec if hasattr(cell, "spec") else cell["spec"]
    if isinstance(spec, Mapping):
        # ``connections`` is omitted from serialised specs at its default
        # of 1 (see CellSpec.as_dict), so tolerate the missing key.
        if axis == "connections" and axis not in spec:
            return "1"
        return str(spec[axis])
    return str(getattr(spec, axis))


def fold_series(values: Iterable[float], prefix: str) -> dict[str, Optional[float]]:
    """Fold a per-connection metric series into fixed summary statistics.

    Returns ``{prefix_sum, prefix_mean, prefix_p50, prefix_p95, prefix_min,
    prefix_max}`` in the :data:`AGGREGATE_STATS` order; every value is
    ``None`` when the series is empty.  Used by the AggregateProbe to keep
    many-connection cell output bounded: the report carries six numbers per
    metric family no matter how many connections the cell ran.
    """
    data = sorted(float(value) for value in values)
    if not data:
        return {f"{prefix}_{stat}": None for stat in AGGREGATE_STATS}
    return {
        f"{prefix}_sum": sum(data),
        f"{prefix}_mean": sum(data) / len(data),
        f"{prefix}_p50": percentile(data, 0.50),
        f"{prefix}_p95": percentile(data, 0.95),
        f"{prefix}_min": data[0],
        f"{prefix}_max": data[-1],
    }


def _cell_result(cell) -> Mapping:
    return cell.result if hasattr(cell, "result") else cell["result"]


def group_cells(cells: Iterable, by: Sequence[str]) -> dict[tuple[str, ...], list]:
    """Group cells by the given axes, preserving cell order inside groups.

    ``cells`` accepts both :class:`~repro.sweep.engine.CellOutcome` objects
    and the plain ``{"spec": ..., "result": ...}`` dicts of a deserialised
    campaign.  Group keys follow first-seen order of iteration, which is
    deterministic because the engine emits cells in grid-expansion order.
    """
    validate_axes(by)
    groups: dict[tuple[str, ...], list] = {}
    for cell in cells:
        key = tuple(_axis_value(cell, axis) for axis in by)
        groups.setdefault(key, []).append(cell)
    return groups


def metric_values(cells: Iterable, metric: str) -> list[float]:
    """All numeric values of ``metric`` across the cells, in order.

    Cells where the metric is missing, ``None`` or structured (some probe
    metrics are per-subflow dicts) contribute no sample.
    """
    values = []
    for cell in cells:
        value = _cell_result(cell).get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            values.append(float(value))
    return values


def summarize_groups(
    cells: Iterable,
    metric: str,
    by: Sequence[str],
) -> dict[tuple[str, ...], Optional[SummaryStats]]:
    """Percentile summaries of ``metric`` per group (``None`` if no samples)."""
    summaries: dict[tuple[str, ...], Optional[SummaryStats]] = {}
    for key, members in group_cells(cells, by).items():
        values = metric_values(members, metric)
        summaries[key] = summarize(values) if values else None
    return summaries


def cdfs_by(cells: Iterable, metric: str, by: Sequence[str]) -> dict[str, Cdf]:
    """One labelled CDF of ``metric`` per group (for cross-scenario plots).

    Groups with no samples are skipped: an empty CDF cannot be evaluated.
    """
    cdfs: dict[str, Cdf] = {}
    for key, members in group_cells(cells, by).items():
        values = metric_values(members, metric)
        if values:
            label = "/".join(key)
            cdfs[label] = Cdf(values, label=label)
    return cdfs
