"""Committed campaign snapshots: the reference side of a regression diff.

A baseline is a compact, schema-versioned JSON snapshot of one finished
campaign — every cell's grid key, config hash and metrics dict, in
deterministic (key-sorted) order.  Committing one under ``baselines/``
turns every future PR into an automatically checked experiment: CI re-runs
the grid and :mod:`repro.sweep.diff` compares the fresh cells against the
snapshot cell by cell.

Three sources produce the same :class:`Baseline` shape, so the diff layer
never cares where a campaign came from:

* a live run (:meth:`Baseline.from_result`),
* a content-addressed campaign store (:func:`baseline_from_store`, or
  :func:`baseline_from_manifest` for a committed snapshot manifest),
* a committed snapshot file (:func:`load_baseline`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from repro.store import CampaignStore, atomic_write_text
from repro.sweep.engine import CampaignResult
from repro.sweep.grid import SWEEP_FORMAT_VERSION, CampaignGrid, CellSpec

#: Bump when the snapshot schema changes incompatibly.
BASELINE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class BaselineCell:
    """One snapshotted cell: its grid key, configuration hash and metrics."""

    key: str
    spec: dict
    config_hash: str
    metrics: dict

    def as_dict(self) -> dict:
        """The cell's entry in the snapshot JSON."""
        return {
            "key": self.key,
            "spec": self.spec,
            "config_hash": self.config_hash,
            "metrics": self.metrics,
        }


@dataclass
class Baseline:
    """A campaign reduced to its comparable surface.

    ``cells`` is always sorted by grid key — the file format has no
    grid-expansion order to preserve, and key order makes snapshots and
    their diffs reproducible regardless of how the campaign was produced.
    """

    name: str
    campaign_seed: int
    cells: list[BaselineCell]
    sweep_format_version: int = SWEEP_FORMAT_VERSION
    source: str = "memory"

    def __post_init__(self) -> None:
        self.cells = sorted(self.cells, key=lambda cell: cell.key)
        keys = [cell.key for cell in self.cells]
        if len(set(keys)) != len(keys):
            duplicates = sorted({key for key in keys if keys.count(key) > 1})
            raise ValueError(f"baseline contains duplicate cell keys: {duplicates}")

    @property
    def cell_count(self) -> int:
        """Number of cells in the snapshot."""
        return len(self.cells)

    def cell_by_key(self) -> dict[str, BaselineCell]:
        """The cells indexed by grid key (keys are unique by construction)."""
        return {cell.key: cell for cell in self.cells}

    @classmethod
    def from_result(cls, result: CampaignResult, source: str = "run") -> "Baseline":
        """Snapshot a finished campaign."""
        return cls(
            name=result.name,
            campaign_seed=result.campaign_seed,
            cells=[
                BaselineCell(
                    key=cell.spec.key,
                    spec=cell.spec.as_dict(),
                    config_hash=cell.config_hash,
                    metrics=dict(cell.result),
                )
                for cell in result.cells
            ],
            source=source,
        )

    def to_json(self) -> str:
        """Deterministic serialisation (the committed-file format)."""
        payload = {
            "baseline_format_version": BASELINE_FORMAT_VERSION,
            "sweep_format_version": self.sweep_format_version,
            "name": self.name,
            "campaign_seed": self.campaign_seed,
            "cells": [cell.as_dict() for cell in self.cells],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_payload(cls, payload: Mapping, source: str = "payload") -> "Baseline":
        """Parse a deserialised snapshot, checking the schema version."""
        version = payload.get("baseline_format_version")
        if version != BASELINE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported baseline format version {version!r} "
                f"(expected {BASELINE_FORMAT_VERSION})"
            )
        return cls(
            name=str(payload["name"]),
            campaign_seed=int(payload["campaign_seed"]),
            sweep_format_version=int(payload.get("sweep_format_version", 0)),
            cells=[
                BaselineCell(
                    key=str(entry["key"]),
                    spec=dict(entry["spec"]),
                    config_hash=str(entry["config_hash"]),
                    metrics=dict(entry["metrics"]),
                )
                for entry in payload["cells"]
            ],
            source=source,
        )


def write_baseline(result: CampaignResult, path: str) -> Baseline:
    """Snapshot ``result`` to ``path`` atomically; returns the snapshot."""
    baseline = Baseline.from_result(result, source=path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    atomic_write_text(path, baseline.to_json())
    return baseline


def load_baseline(path: str) -> Baseline:
    """Load a committed snapshot, validating its schema version."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, Mapping):
        raise ValueError(f"baseline file {path!r} does not contain a JSON object")
    return Baseline.from_payload(payload, source=path)


class IncompleteStoreError(ValueError):
    """A store does not hold every cell of the grid asked of it."""


def baseline_from_store(
    grid: CampaignGrid,
    store: Union[str, CampaignStore],
    name: Optional[str] = None,
) -> Baseline:
    """Assemble a baseline purely from a campaign store's cell objects.

    ``store`` is a :class:`~repro.store.CampaignStore` or a path to one.
    Every cell of ``grid`` must already be stored (a previous run with the
    same campaign seed); missing cells raise, naming the first few,
    instead of silently producing a partial campaign.
    """
    if not isinstance(store, CampaignStore):
        store = CampaignStore(store)
    cells: list[BaselineCell] = []
    missing: list[str] = []
    for spec in grid.expand():
        config_hash = spec.config_hash(grid.campaign_seed)
        entry = store.get_cell(config_hash)
        if entry is None:
            missing.append(spec.key)
            continue
        cells.append(
            BaselineCell(
                key=spec.key,
                spec=spec.as_dict(),
                config_hash=config_hash,
                metrics=dict(entry["result"]),
            )
        )
    if missing:
        shown = ", ".join(missing[:5])
        more = f" (+{len(missing) - 5} more)" if len(missing) > 5 else ""
        raise IncompleteStoreError(
            f"store {store.root!r} is missing {len(missing)} of "
            f"{grid.cell_count} cells for grid {grid.name!r}: {shown}{more}"
        )
    return Baseline(
        name=name if name is not None else grid.name,
        campaign_seed=grid.campaign_seed,
        cells=cells,
        source=store.root,
    )


def baseline_from_manifest(
    store: Union[str, CampaignStore], campaign_id: Optional[str] = None
) -> Baseline:
    """Assemble a baseline from a committed snapshot manifest.

    Loads the latest manifest of ``campaign_id`` (or of the store's only
    campaign when omitted) and reads every completed cell object it
    names — the read path fault triage and the fuzz tooling share.
    Partial manifests raise rather than producing a silently truncated
    campaign.
    """
    if not isinstance(store, CampaignStore):
        store = CampaignStore(store)
    if campaign_id is None:
        campaigns = store.campaign_ids()
        if len(campaigns) != 1:
            raise ValueError(
                f"store {store.root!r} holds {len(campaigns)} campaigns; "
                f"pass campaign_id explicitly (have {campaigns})"
            )
        campaign_id = campaigns[0]
    manifest = store.latest_manifest(campaign_id)
    if manifest is None:
        raise ValueError(f"store {store.root!r} has no manifest for campaign {campaign_id!r}")
    if not manifest.complete:
        raise ValueError(
            f"campaign {campaign_id!r} is incomplete: "
            f"{len(manifest.missing)} of {len(manifest.cells)} cells missing"
        )
    cells: list[BaselineCell] = []
    for config_hash in manifest.cells:
        entry = store.get_cell(config_hash)
        if entry is None:
            raise ValueError(
                f"manifest names cell {config_hash} but the store object is missing/corrupt"
            )
        spec = dict(entry["spec"])
        cells.append(
            BaselineCell(
                key=CellSpec.from_dict(spec).key,
                spec=spec,
                config_hash=config_hash,
                metrics=dict(entry["result"]),
            )
        )
    return Baseline(
        name=manifest.name,
        campaign_seed=manifest.campaign_seed,
        cells=cells,
        source=f"{store.root}@{campaign_id}",
    )


def _normalise(campaign, source: Optional[str] = None) -> Baseline:
    """Coerce any campaign-shaped object into a :class:`Baseline`.

    Accepts a :class:`Baseline` (returned as-is), a
    :class:`~repro.sweep.engine.CampaignResult`, or a snapshot payload
    dict — the three shapes :func:`repro.sweep.diff.diff_campaigns` takes.
    """
    if isinstance(campaign, Baseline):
        return campaign
    if isinstance(campaign, CampaignResult):
        return Baseline.from_result(campaign, source=source or "run")
    if isinstance(campaign, Mapping):
        return Baseline.from_payload(campaign, source=source or "payload")
    raise TypeError(
        f"cannot diff {type(campaign).__name__}: expected a Baseline, "
        "CampaignResult, or snapshot payload dict"
    )
