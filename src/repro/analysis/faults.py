"""Robustness analysis of fuzz campaigns.

A fuzz campaign runs faulted scenario variants next to their clean twins
(same workload, scheduler, controller and seed).  This module reduces such
a campaign to a triage report: per faulted cell, did the connection
survive, how much goodput was retained against the twin, how many
subflows died — and a verdict (``pass`` / ``fallback`` / ``degraded`` /
``failed``) the shrink workflow and the CI fuzz-smoke job key on.
``fallback`` sits between pass and degraded: the cell survived, but only
by downgrading to plain TCP.  The report is built
only from deterministic cell metrics and rendered canonically, so it is
byte-identical for the same campaign seed at any worker count.
"""

from __future__ import annotations

import json
from typing import Mapping, Optional

from repro.sweep.grid import CellSpec
from repro.workloads.registry import FAULTED_SCENARIOS

#: Bump when the triage report schema changes incompatibly.
TRIAGE_FORMAT_VERSION = 1

#: Below this fraction of the twin's goodput a cell counts as failed
#: (effectively dead), between it and ``goodput_floor`` as degraded.
FAILURE_FLOOR = 0.1


def clean_twin_spec(spec: Mapping) -> Optional[dict]:
    """The clean-twin cell spec of a faulted cell spec, or ``None``."""
    twin_scenario = FAULTED_SCENARIOS.get(str(spec["scenario"]))
    if twin_scenario is None:
        return None
    twin = dict(spec)
    twin["scenario"] = twin_scenario
    return twin


def evaluate_cell(
    faulted_metrics: Mapping,
    clean_metrics: Optional[Mapping],
    goodput_floor: float = 0.5,
    failure_floor: float = FAILURE_FLOOR,
) -> dict:
    """Judge one faulted cell against its clean twin.

    Returns a dict with the retained-goodput ratio, the survival signals
    and a ``verdict``: ``failed`` when the connection never established or
    goodput collapsed below ``failure_floor`` of the twin's — downgrading
    does not excuse a dead cell; ``fallback`` when the cell *survived*
    (goodput at or above ``failure_floor``) by downgrading at least one
    connection to plain TCP, taking precedence over ``degraded`` because
    surviving hostile signalling interference is the interesting fact;
    ``degraded`` below ``goodput_floor``; ``no_twin``/``no_baseline`` when
    there is nothing sound to compare against; else ``pass``.
    """
    established = faulted_metrics.get("connection_established")
    goodput = faulted_metrics.get("goodput_mbps")
    fallbacks = faulted_metrics.get("fallback_connections") or 0
    reasons: list[str] = []
    retained: Optional[float] = None

    if clean_metrics is None:
        verdict = "no_twin"
    else:
        clean_goodput = clean_metrics.get("goodput_mbps")
        if not isinstance(clean_goodput, (int, float)) or clean_goodput <= 0:
            verdict = "no_baseline"
        else:
            retained = (goodput or 0.0) / clean_goodput
            if established == 0:
                verdict = "failed"
                reasons.append("connection never established")
            elif retained < failure_floor:
                verdict = "failed"
                reasons.append(
                    f"goodput collapsed to {retained:.1%} of the clean twin"
                )
            elif fallbacks > 0:
                verdict = "fallback"
                reasons.append(
                    f"survived via plain-TCP fallback ({fallbacks} connection(s), "
                    f"goodput retained {retained:.1%})"
                )
            elif retained < goodput_floor:
                verdict = "degraded"
                reasons.append(f"goodput retained {retained:.1%} < {goodput_floor:.0%}")
            else:
                verdict = "pass"
    return {
        "verdict": verdict,
        "reasons": reasons,
        "goodput_mbps": goodput,
        "twin_goodput_mbps": (clean_metrics or {}).get("goodput_mbps"),
        "goodput_retained": None if retained is None else round(retained, 6),
        "connection_established": established,
        "fallback_connections": fallbacks,
    }


def fault_rows(result, goodput_floor: float = 0.5) -> list[dict]:
    """One triage row per faulted cell of a campaign, in grid-key order.

    ``result`` is anything with ``cells`` of ``(spec, result)`` pairs — a
    :class:`~repro.sweep.engine.CampaignResult` or a loaded baseline (for
    baselines, ``metrics`` takes the place of ``result``).
    """
    by_key: dict[str, Mapping] = {}
    specs: dict[str, Mapping] = {}
    for cell in result.cells:
        spec = cell.spec.as_dict() if hasattr(cell.spec, "as_dict") else dict(cell.spec)
        metrics = getattr(cell, "result", None)
        if metrics is None:
            metrics = cell.metrics
        key = _spec_key(spec)
        by_key[key] = metrics
        specs[key] = spec

    rows = []
    for key in sorted(by_key):
        spec = specs[key]
        if spec["scenario"] not in FAULTED_SCENARIOS:
            continue
        twin = clean_twin_spec(spec)
        twin_key = _spec_key(twin) if twin is not None else None
        clean_metrics = by_key.get(twin_key) if twin_key is not None else None
        metrics = by_key[key]
        row = {
            "key": key,
            "twin_key": twin_key if twin_key in by_key else None,
            **evaluate_cell(metrics, clean_metrics, goodput_floor=goodput_floor),
        }
        for metric in (
            "fault_events_scheduled",
            "fault_events_fired",
            "fault_segments_dropped",
            "fallback_bytes",
            "subflows_created",
            "subflows_live_at_end",
        ):
            if metric in metrics:
                row[metric] = metrics[metric]
        rows.append(row)
    return rows


def _spec_key(spec: Mapping) -> str:
    """The cell's grid key, via :class:`CellSpec` so triage keys can never
    drift from the keys the sweep, baseline and diff layers use."""
    return CellSpec.from_dict(spec).key


def triage_campaign(result, goodput_floor: float = 0.5) -> dict:
    """Reduce a fuzz campaign to the canonical triage report dict."""
    rows = fault_rows(result, goodput_floor=goodput_floor)
    verdicts: dict[str, int] = {}
    for row in rows:
        verdicts[row["verdict"]] = verdicts.get(row["verdict"], 0) + 1
    return {
        "triage_format_version": TRIAGE_FORMAT_VERSION,
        "campaign": result.name,
        "campaign_seed": result.campaign_seed,
        "faulted_cells": len(rows),
        "verdicts": dict(sorted(verdicts.items())),
        "goodput_floor": goodput_floor,
        "rows": rows,
    }


def triage_json(triage: Mapping) -> str:
    """Byte-stable rendering of a triage report (the CI comparison surface)."""
    return json.dumps(triage, sort_keys=True, indent=2) + "\n"


def format_fault_report(triage: Mapping) -> str:
    """Human rendering of a triage report."""
    lines = [
        f"fuzz triage: campaign '{triage['campaign']}' "
        f"(seed {triage['campaign_seed']}, {triage['faulted_cells']} faulted cells)",
    ]
    verdicts = ", ".join(f"{name}={count}" for name, count in triage["verdicts"].items())
    lines.append(f"  verdicts: {verdicts or 'none'}")
    for row in triage["rows"]:
        retained = row["goodput_retained"]
        retained_text = f"{retained:.1%}" if retained is not None else "n/a"
        lines.append(f"  [{row['verdict']:>8}] {row['key']}  goodput retained {retained_text}")
        for reason in row["reasons"]:
            lines.append(f"             - {reason}")
    return "\n".join(lines)
