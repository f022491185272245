"""Cell-by-cell comparison of two campaigns: the regression gate.

The paper's claims are comparative, so the reproduction's real product is
the *difference* between two campaign runs.  :func:`diff_campaigns` aligns
the cells of two campaigns by their grid key (intersecting grids that need
not match — extra cells on either side are reported, not crashed on),
compares every metric under per-family absolute/relative tolerances, and
renders both a human report (:func:`repro.sweep.report.format_diff_report`)
and canonical machine JSON (:meth:`CampaignDiff.to_json`,
``DIFF_FORMAT_VERSION``).

Tolerance semantics
-------------------
A numeric metric pair is within tolerance iff ``math.isclose(left, right,
rel_tol, abs_tol)`` holds — boundary equality counts as within, both-NaN
counts as identical, and a NaN/number or missing/number pair is always out
of tolerance.  Non-numeric metrics (trace digests, per-subflow byte dicts)
compare by equality and report as *informational* changes: they flag that
behaviour moved, but only numeric drift beyond tolerance gates CI,
otherwise any behavioural change at all would defeat the tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.sweep.baseline import Baseline, _normalise

#: Bump when the machine-JSON diff schema changes incompatibly.
DIFF_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# tolerances
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Tolerance:
    """Absolute + relative slack for one metric family."""

    rel: float = 0.0
    abs: float = 0.0

    def within(self, left: float, right: float) -> bool:
        """True iff the pair is inside tolerance (boundaries inclusive)."""
        if math.isnan(left) and math.isnan(right):
            return True
        return math.isclose(left, right, rel_tol=self.rel, abs_tol=self.abs)


#: Default per-family tolerances.  Counts are exact on purpose: a subflow
#: appearing or a request going missing is real drift, never noise.
DEFAULT_TOLERANCES: dict[str, Tolerance] = {
    "goodput": Tolerance(rel=0.05, abs=0.05),
    "latency": Tolerance(rel=0.05, abs=0.01),
    "bytes": Tolerance(rel=0.02, abs=512.0),
    "events": Tolerance(rel=0.10, abs=16.0),
    "counts": Tolerance(rel=0.0, abs=0.0),
    "other": Tolerance(rel=0.05, abs=1e-9),
}


def metric_family(name: str) -> str:
    """Classify a metric name into one of the tolerance families.

    Order matters: byte totals are checked before the generic latency
    patterns so ``trace_data_bytes`` lands in ``bytes``.  Count-shaped
    names (``*_sent``, ``*_created``, ``subflow*``, ...) map to the exact
    ``counts`` family; anything unrecognised falls back to ``other``
    (5% relative by default) — give a new metric a count-shaped name or a
    per-metric tolerance override if it needs exact comparison.
    """
    if "goodput" in name:
        return "goodput"
    if name.endswith("_bytes") or "bytes_" in name:
        return "bytes"
    if "latency" in name or "delay" in name or "_time" in name or "time_" in name:
        return "latency"
    if name.startswith("events_") or name == "trace_packets":
        return "events"
    if name.endswith(("_count", "_sent", "_delivered", "_completed", "_created",
                      "_used", "_initiated", "_samples", "_received", "_started",
                      "_blocks", "_connections")) or "subflow" in name:
        return "counts"
    return "other"


def resolve_tolerance(metric: str, tolerances: Mapping[str, Tolerance]) -> Tolerance:
    """The tolerance for a metric: exact-name override, else its family.

    ``tolerances`` maps family names and/or full metric names to
    :class:`Tolerance`; unknown families fall back to ``other`` and then
    to exact comparison.
    """
    if metric in tolerances:
        return tolerances[metric]
    family = metric_family(metric)
    if family in tolerances:
        return tolerances[family]
    return tolerances.get("other", Tolerance())


# ----------------------------------------------------------------------
# per-metric and per-cell results
# ----------------------------------------------------------------------
#: Sentinel for "this side has no such metric" (distinct from a None value).
_MISSING = object()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_value(value):
    """A strict-JSON-safe rendering of a metric value (NaN/inf to strings)."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'nan', 'inf', '-inf'
    return value


@dataclass(frozen=True)
class MetricDelta:
    """One changed metric inside one matched cell."""

    metric: str
    family: str
    left: object
    right: object
    abs_delta: Optional[float]
    rel_delta: Optional[float]
    within: bool
    """True when the change is inside tolerance (or informational)."""
    gating: bool
    """True for numeric/missing drift — the kind that can fail the gate."""

    @property
    def out_of_tolerance(self) -> bool:
        """True when this delta alone fails the gate."""
        return self.gating and not self.within

    def as_dict(self) -> dict:
        """This delta's entry in the machine-readable diff JSON."""
        return {
            "metric": self.metric,
            "family": self.family,
            "left": _json_value(self.left),
            "right": _json_value(self.right),
            "abs_delta": _json_value(self.abs_delta),
            "rel_delta": _json_value(self.rel_delta),
            "within": self.within,
            "gating": self.gating,
        }


@dataclass
class CellDiff:
    """Every change between the two versions of one matched cell."""

    key: str
    spec: dict
    config_match: bool
    deltas: list[MetricDelta] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        """True when the two versions of the cell match exactly."""
        return not self.deltas

    @property
    def out_of_tolerance(self) -> list[MetricDelta]:
        """The gate-failing deltas of this cell."""
        return [delta for delta in self.deltas if delta.out_of_tolerance]

    def as_dict(self) -> dict:
        """This cell's entry in the machine-readable diff JSON."""
        return {
            "key": self.key,
            "spec": self.spec,
            "config_match": self.config_match,
            "deltas": [delta.as_dict() for delta in self.deltas],
            "out_of_tolerance": [delta.metric for delta in self.out_of_tolerance],
        }


def _diff_metric(
    metric: str,
    left,
    right,
    tolerance: Tolerance,
) -> Optional[MetricDelta]:
    """Compare one metric pair; ``None`` when the values are identical."""
    family = metric_family(metric)
    if _is_number(left) and _is_number(right):
        left_f, right_f = float(left), float(right)
        both_nan = math.isnan(left_f) and math.isnan(right_f)
        if left_f == right_f or both_nan:
            return None
        abs_delta = abs(left_f - right_f)
        reference = max(abs(left_f), abs(right_f))
        rel_delta = (abs_delta / reference) if reference > 0 else math.inf
        if not math.isfinite(abs_delta):
            abs_delta, rel_delta = math.inf, math.inf
        return MetricDelta(
            metric=metric,
            family=family,
            left=left,
            right=right,
            abs_delta=abs_delta,
            rel_delta=rel_delta,
            within=tolerance.within(left_f, right_f),
            gating=True,
        )
    if (
        left is not _MISSING
        and right is not _MISSING
        and _is_number(left) == _is_number(right)
        and left == right
    ):
        # The numeric-kind guard keeps e.g. 1 == True from reading as
        # identical: a count degrading to a boolean is drift, not noise.
        return None
    # Missing-on-one-side (or None vs number) is gating drift — a metric
    # vanishing is as real a regression signal as its value moving — and
    # so is a number turning into a non-number (string, bool, dict).
    one_sided = (left is _MISSING or right is _MISSING or left is None or right is None)
    type_drift = _is_number(left) != _is_number(right)
    return MetricDelta(
        metric=metric,
        family=family,
        left=None if left is _MISSING else left,
        right=None if right is _MISSING else right,
        abs_delta=None,
        rel_delta=None,
        within=not (one_sided or type_drift),
        gating=one_sided or type_drift,
    )


def diff_cell(
    key: str,
    spec: dict,
    left_metrics: Mapping,
    right_metrics: Mapping,
    tolerances: Mapping[str, Tolerance],
    config_match: bool = True,
) -> CellDiff:
    """Diff one matched cell's metrics dicts."""
    cell = CellDiff(key=key, spec=spec, config_match=config_match)
    for metric in sorted(set(left_metrics) | set(right_metrics)):
        delta = _diff_metric(
            metric,
            left_metrics.get(metric, _MISSING),
            right_metrics.get(metric, _MISSING),
            resolve_tolerance(metric, tolerances),
        )
        if delta is not None:
            cell.deltas.append(delta)
    return cell


# ----------------------------------------------------------------------
# the campaign-level diff
# ----------------------------------------------------------------------
@dataclass
class CampaignDiff:
    """The full cell-by-cell comparison of two campaigns."""

    left: Baseline
    right: Baseline
    tolerances: Mapping[str, Tolerance]
    matched: list[CellDiff]
    left_only: list[str]
    right_only: list[str]

    @property
    def changed_cells(self) -> list[CellDiff]:
        """Matched cells with at least one delta (gating or not)."""
        return [cell for cell in self.matched if not cell.identical]

    @property
    def out_of_tolerance_cells(self) -> list[CellDiff]:
        """Matched cells that fail the tolerance gate."""
        return [cell for cell in self.matched if cell.out_of_tolerance]

    @property
    def config_mismatched_cells(self) -> list[CellDiff]:
        """Matched cells whose configuration hash differs between sides.

        The grid key matched but the cell's full configuration (campaign
        seed, params, sweep format version) did not — the two sides ran
        different experiments under the same name.
        """
        return [cell for cell in self.matched if not cell.config_match]

    @property
    def identical(self) -> bool:
        """True when the grids align exactly and no metric moved at all."""
        return not (
            self.changed_cells
            or self.config_mismatched_cells
            or self.left_only
            or self.right_only
        )

    @property
    def gate_ok(self) -> bool:
        """The CI verdict: aligned grids and no out-of-tolerance drift.

        Within-tolerance numeric drift and informational changes (digests,
        structured metrics) do not fail the gate; missing or extra cells
        do, and so do config-mismatched cells (same grid key, different
        configuration hash) even when their metrics happen to stay within
        tolerance — a baseline that no longer describes the grid must be
        regenerated, not silently ignored.
        """
        return not (
            self.out_of_tolerance_cells
            or self.config_mismatched_cells
            or self.left_only
            or self.right_only
        )

    def to_payload(self) -> dict:
        """The machine-readable diff (strict JSON, schema-versioned)."""
        return {
            "diff_format_version": DIFF_FORMAT_VERSION,
            "left": {
                "name": self.left.name,
                "source": self.left.source,
                "campaign_seed": self.left.campaign_seed,
                "cell_count": self.left.cell_count,
            },
            "right": {
                "name": self.right.name,
                "source": self.right.source,
                "campaign_seed": self.right.campaign_seed,
                "cell_count": self.right.cell_count,
            },
            "tolerances": {
                name: {"rel": tol.rel, "abs": tol.abs}
                for name, tol in sorted(self.tolerances.items())
            },
            "left_only": list(self.left_only),
            "right_only": list(self.right_only),
            "cells": [cell.as_dict() for cell in self.changed_cells],
            "summary": {
                "matched": len(self.matched),
                "identical": len(self.matched) - len(self.changed_cells),
                "changed": len(self.changed_cells),
                "out_of_tolerance": [cell.key for cell in self.out_of_tolerance_cells],
                "config_mismatched": [cell.key for cell in self.config_mismatched_cells],
                "gate_ok": self.gate_ok,
            },
        }

    def to_json(self) -> str:
        """Canonical serialisation of :meth:`to_payload` (byte-stable)."""
        return json.dumps(
            self.to_payload(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )


def diff_campaigns(left, right) -> CampaignDiff:
    """Align and compare two campaigns cell by cell under :data:`DEFAULT_TOLERANCES`.

    ``left`` is the reference (usually the committed baseline), ``right``
    the candidate.  Both sides accept a :class:`Baseline`, a live
    :class:`~repro.sweep.engine.CampaignResult`, or a snapshot payload
    dict.  Cells align by grid key; keys present on only one side are
    reported in ``left_only`` / ``right_only`` rather than compared.
    """
    left_base = _normalise(left)
    right_base = _normalise(right)

    left_cells = left_base.cell_by_key()
    right_cells = right_base.cell_by_key()
    shared = sorted(set(left_cells) & set(right_cells))
    matched = [
        diff_cell(
            key=key,
            spec=left_cells[key].spec,
            left_metrics=left_cells[key].metrics,
            right_metrics=right_cells[key].metrics,
            tolerances=DEFAULT_TOLERANCES,
            config_match=left_cells[key].config_hash == right_cells[key].config_hash,
        )
        for key in shared
    ]
    return CampaignDiff(
        left=left_base,
        right=right_base,
        tolerances=DEFAULT_TOLERANCES,
        matched=matched,
        left_only=sorted(set(left_cells) - set(right_cells)),
        right_only=sorted(set(right_cells) - set(left_cells)),
    )
