"""The campaign engine: plan, execute, merge.

A campaign run is three explicit phases:

1. **plan** — :func:`plan_campaign` expands the grid into cells and
   content-addresses each one (:class:`CampaignPlan`);
2. **execute** — :func:`execute_plan` resumes whatever the store
   already holds, hands the remaining cells to an
   :class:`~repro.sweep.backends.ExecutionBackend` (serial, process pool,
   or store-mediated subprocess shards), and records completions;
3. **merge** — :func:`merge_campaign` reassembles the results in
   grid-expansion order into a :class:`CampaignResult`.

:func:`run_campaign` composes the three and is the API almost every
caller wants.

Determinism contract
--------------------
``run_campaign`` produces byte-identical canonical output for a given
``(grid, campaign_seed)`` regardless of:

* the number of workers (serial, 2, 4, ...),
* which execution backend ran the cells,
* the order in which workers finish cells,
* whether results came from the store or a fresh run,
* whether the campaign ran once or resumed from a partial store.

This holds because each cell seeds its own simulator purely from the
campaign seed and the cell coordinates (:meth:`CellSpec.cell_seed`) and the
merge phase reassembles results in grid-expansion order, never completion
order.  When a :class:`~repro.store.CampaignStore` is attached, the final
snapshot manifest is byte-identical under the same conditions.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.obs.telemetry import CellTelemetry
from repro.store import CampaignStore, Manifest, campaign_id_for
from repro.sweep.backends import (
    ExecutionBackend,
    PoolUnavailableError,
    SerialBackend,
    resolve_backend,
)
from repro.sweep.grid import CampaignGrid, CellSpec

#: Commit a partial snapshot manifest every this many fresh cells, so a
#: killed campaign leaves a recent resume point behind.
MANIFEST_COMMIT_INTERVAL = 16


@dataclass
class CellOutcome:
    """One cell of a finished campaign."""

    spec: CellSpec
    config_hash: str
    result: dict
    cached: bool
    telemetry: Optional[CellTelemetry] = None
    """Wall-clock side channel (:class:`repro.obs.telemetry.CellTelemetry`).
    Deliberately excluded from :meth:`CampaignResult.to_canonical_json`
    and the cell store: wall time varies run to run, the determinism
    surface must not."""


@dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    name: str
    campaign_seed: int
    cells: list[CellOutcome]
    workers_requested: int
    workers_used: int
    parallel_fallback: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    wall_time: float = 0.0
    backend: str = "serial"
    campaign_id: str = ""
    notes: list[str] = field(default_factory=list)

    @property
    def cell_count(self) -> int:
        """Number of cells in the campaign."""
        return len(self.cells)

    def metric_values(self, metric: str) -> list[float]:
        """All non-``None`` values of a per-cell metric, in cell order."""
        from repro.analysis.aggregate import metric_values

        return metric_values(self.cells, metric)

    def to_canonical_json(self) -> str:
        """Deterministic serialisation of specs and results.

        Excludes run metadata (cache hits, workers, backend, wall time) on
        purpose: this is the byte-identity surface the determinism
        regression tests compare across worker counts, backends and store
        states.
        """
        payload = {
            "name": self.name,
            "campaign_seed": self.campaign_seed,
            "cells": [
                {
                    "spec": cell.spec.as_dict(),
                    "config_hash": cell.config_hash,
                    "result": cell.result,
                }
                for cell in self.cells
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


ProgressCallback = Callable[[CellSpec, dict, bool, Optional[CellTelemetry]], None]


@dataclass(frozen=True)
class CampaignPlan:
    """The plan phase's output: the expanded grid, content-addressed.

    ``specs`` and ``hashes`` are index-aligned and in grid-expansion order
    (the merge order); ``campaign_id`` names the manifest chain this plan
    resumes and commits to inside a :class:`~repro.store.CampaignStore`.
    """

    grid: CampaignGrid
    specs: tuple[CellSpec, ...]
    hashes: tuple[str, ...]
    campaign_id: str

    @property
    def cell_count(self) -> int:
        """Number of planned cells."""
        return len(self.specs)


def plan_campaign(grid: CampaignGrid) -> CampaignPlan:
    """Validate and expand a grid into a content-addressed plan."""
    grid.validate()
    specs = tuple(grid.expand())
    hashes = tuple(spec.config_hash(grid.campaign_seed) for spec in specs)
    return CampaignPlan(
        grid=grid,
        specs=specs,
        hashes=hashes,
        campaign_id=campaign_id_for(grid.name, grid.campaign_seed, hashes),
    )


@dataclass
class ExecutionState:
    """The execute phase's output: per-index results and run metadata."""

    results: dict[int, dict] = field(default_factory=dict)
    cached_flags: dict[int, bool] = field(default_factory=dict)
    telemetries: dict[int, CellTelemetry] = field(default_factory=dict)
    workers_used: int = 0
    parallel_fallback: bool = False
    backend: str = "serial"


def _plan_manifest(plan: CampaignPlan, done: set[int], complete: bool) -> Manifest:
    """The snapshot manifest for a plan with ``done`` indices completed."""
    return Manifest(
        campaign_id=plan.campaign_id,
        name=plan.grid.name,
        campaign_seed=plan.grid.campaign_seed,
        cells=plan.hashes,
        completed=tuple(
            config_hash
            for index, config_hash in enumerate(plan.hashes)
            if index in done
        ),
        complete=complete,
        grid=plan.grid.as_dict(),
    )


def execute_plan(
    plan: CampaignPlan,
    workers: int = 1,
    backend: Union[str, ExecutionBackend, None] = None,
    store: Optional[CampaignStore] = None,
    progress: Optional[ProgressCallback] = None,
) -> ExecutionState:
    """Run (or resume) every cell of a plan through a backend.

    Cells already present in ``store`` are reused — that is the resume
    path: a campaign killed mid-run leaves its completed objects and a
    partial manifest behind, and the next ``execute_plan`` of the same plan
    recomputes only the missing cells.  Fresh results are written to the
    store, partial manifests are committed as the run progresses and a
    complete one when every cell is in.  Without a store nothing is
    persisted: every cell runs and the results live in the returned state.
    """
    campaign_seed = plan.grid.campaign_seed
    state = ExecutionState()

    pending: list[tuple[int, CellSpec]] = []
    for index, (spec, config_hash) in enumerate(zip(plan.specs, plan.hashes)):
        entry = store.get_cell(config_hash) if store is not None else None
        if entry is not None:
            state.results[index] = entry["result"]
            state.cached_flags[index] = True
            # A hit costs one JSON read; zero wall time keeps the cached
            # rows out of the events/s statistics.
            state.telemetries[index] = CellTelemetry(
                key=spec.key,
                cached=True,
                wall_time_s=0.0,
                sim_events=int(entry["result"].get("events_processed", 0)),
                events_per_s=0.0,
            )
            if progress is not None:
                progress(spec, entry["result"], True, state.telemetries[index])
        else:
            pending.append((index, spec))

    if store is not None and pending:
        # Record the plan (and what resume already found) before running a
        # single cell, so even an immediately-killed campaign leaves a
        # valid snapshot to resume from.
        store.commit_manifest_if_changed(
            _plan_manifest(plan, set(state.results), complete=False)
        )

    fresh_cells = 0

    def on_cell(index: int, payload: dict) -> None:
        """Record one freshly computed cell (fires in completion order)."""
        nonlocal fresh_cells
        spec = plan.specs[index]
        result = payload["result"]
        stats = payload["telemetry"]
        state.results[index] = result
        state.cached_flags[index] = False
        state.telemetries[index] = CellTelemetry(
            key=spec.key,
            cached=False,
            wall_time_s=stats["wall_time_s"],
            sim_events=stats["sim_events"],
            events_per_s=stats["events_per_s"],
        )
        if store is not None:
            # The store holds the deterministic result only — telemetry
            # is wall-clock noise and must never be replayed.
            store.put_cell(
                plan.hashes[index],
                {
                    "spec": spec.as_dict(),
                    "campaign_seed": campaign_seed,
                    "result": result,
                },
            )
        fresh_cells += 1
        if (
            store is not None
            and fresh_cells % MANIFEST_COMMIT_INTERVAL == 0
            and len(state.results) < plan.cell_count
        ):
            store.commit_manifest_if_changed(
                _plan_manifest(plan, set(state.results), complete=False)
            )
        if progress is not None:
            progress(spec, result, False, state.telemetries[index])

    workers_used = min(workers, len(pending)) if pending else 0
    if pending:
        backend_obj = resolve_backend(backend, workers_used)
        state.backend = backend_obj.name
        if not isinstance(backend_obj, SerialBackend):
            try:
                backend_obj.run_cells(
                    pending, campaign_seed, max(workers_used, 1), on_cell, store=store
                )
            except PoolUnavailableError:
                state.parallel_fallback = True
                workers_used = 1
        # Serial path — the serial backend itself, and, after a backend
        # failure, whatever cells the backend did not get to.
        remaining = [(index, spec) for index, spec in pending if index not in state.results]
        if remaining:
            workers_used = 1
            SerialBackend().run_cells(
                remaining, campaign_seed, 1, on_cell, store=store
            )
    state.workers_used = workers_used

    if store is not None and len(state.results) == plan.cell_count:
        store.commit_manifest_if_changed(
            _plan_manifest(plan, set(state.results), complete=True)
        )
    return state


def merge_campaign(
    plan: CampaignPlan,
    state: ExecutionState,
    workers_requested: int = 1,
    wall_time: float = 0.0,
) -> CampaignResult:
    """Reassemble executed cells into a campaign, in grid-expansion order.

    The merge never looks at completion order, which is what makes the
    aggregated output byte-identical across backends and worker counts.
    """
    cells = [
        CellOutcome(
            spec=spec,
            config_hash=plan.hashes[index],
            result=state.results[index],
            cached=state.cached_flags[index],
            telemetry=state.telemetries.get(index),
        )
        for index, spec in enumerate(plan.specs)
    ]
    outcome = CampaignResult(
        name=plan.grid.name,
        campaign_seed=plan.grid.campaign_seed,
        cells=cells,
        workers_requested=workers_requested,
        workers_used=state.workers_used,
        parallel_fallback=state.parallel_fallback,
        cache_hits=sum(1 for cached in state.cached_flags.values() if cached),
        cache_misses=sum(1 for cached in state.cached_flags.values() if not cached),
        wall_time=wall_time,
        backend=state.backend,
        campaign_id=plan.campaign_id,
    )
    if state.parallel_fallback:
        outcome.notes.append(
            "process pool unavailable on this platform; cells ran serially instead"
        )
    return outcome


def run_campaign(
    grid: CampaignGrid,
    workers: int = 1,
    progress: Optional[ProgressCallback] = None,
    backend: Union[str, ExecutionBackend, None] = None,
    store_dir: Union[str, CampaignStore, None] = None,
) -> CampaignResult:
    """Run every cell of ``grid`` and aggregate the results.

    Plan → execute → merge, composed; see the phase functions for the
    detailed contracts.

    Parameters
    ----------
    workers:
        Number of worker processes.  Under the default ``backend``
        (``None``/``"auto"``), ``1`` runs serially in-process and higher
        values use a ``ProcessPoolExecutor``; if the platform refuses to
        start the pool (restricted sandboxes), the engine falls back to a
        serial run and flags it in the result — output is identical either
        way.
    progress:
        Optional callback invoked as ``progress(spec, result, cached,
        telemetry)`` after every cell, in completion order.  The
        telemetry argument is the cell's
        :class:`~repro.obs.telemetry.CellTelemetry`.
    backend:
        An :class:`~repro.sweep.backends.ExecutionBackend` name
        (``serial``, ``pool``, ``subprocess``), instance, or
        ``None``/``"auto"`` for the worker-count-based default.
    store_dir:
        Path of (or an opened) :class:`~repro.store.CampaignStore`.  Cells
        are resumed from and committed to the store, and snapshot
        manifests are committed as the campaign progresses.  Without one,
        every cell runs and nothing is written to disk.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    started = time.monotonic()
    plan = plan_campaign(grid)
    if isinstance(store_dir, CampaignStore):
        store: Optional[CampaignStore] = store_dir
    else:
        store = CampaignStore(store_dir) if store_dir is not None else None
    state = execute_plan(
        plan,
        workers=workers,
        backend=backend,
        store=store,
        progress=progress,
    )
    return merge_campaign(
        plan, state, workers_requested=workers, wall_time=time.monotonic() - started
    )
