"""The worker side of the sweep engine: run one campaign cell.

:func:`run_cell` is a module-level function over plain dicts so it can be
shipped to ``ProcessPoolExecutor`` workers by pickle.  Each cell is one
:class:`~repro.workloads.harness.HarnessSpec` — workload × scenario ×
scheduler × controller, all referenced by registry name — seeded via
:meth:`CellSpec.cell_seed`, so results are a pure function of the campaign
seed and the cell coordinates: the engine can run cells in any order, on
any number of workers, and still aggregate byte-identical output.

The registries themselves live in :mod:`repro.workloads.registry`; they
are re-exported here (``SCENARIOS``, ``CONTROLLERS``, ``EXPERIMENTS``) for
the sweep-facing API.  ``EXPERIMENTS`` is the workload registry: every
registered workload is a sweep experiment over every registered scenario.
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.sweep.grid import CellSpec
from repro.workloads import (
    CONTROLLERS,
    DEFAULT_PROBES,
    SCENARIOS,
    WORKLOADS,
    Harness,
    HarnessSpec,
    trace_digest,
)

SERVER_PORT = 9001

#: Workloads double as the sweep's experiment axis.
EXPERIMENTS: Mapping = WORKLOADS

__all__ = [
    "SCENARIOS",
    "CONTROLLERS",
    "EXPERIMENTS",
    "SERVER_PORT",
    "run_cell",
    "run_cell_with_telemetry",
    "trace_digest",
]


# ----------------------------------------------------------------------
# entry point (must stay a module-level function: workers pickle it)
# ----------------------------------------------------------------------
def run_cell(spec_dict: Mapping, campaign_seed: int) -> dict:
    """Execute one campaign cell and return its metrics as a plain dict."""
    spec = CellSpec.from_dict(spec_dict)
    if (
        spec.experiment not in WORKLOADS
        or spec.scenario not in SCENARIOS
        or spec.controller not in CONTROLLERS
    ):
        raise ValueError(f"cell {spec.key!r} references an unknown registry entry")

    params = spec.param_dict
    run = Harness().run(
        HarnessSpec(
            workload=spec.experiment,
            scenario=spec.scenario,
            controller=spec.controller,
            scheduler=spec.scheduler,
            seed=spec.cell_seed(campaign_seed),
            horizon=float(params.get("horizon", 30.0)),
            connections=spec.connections,
            server_port=SERVER_PORT,
            params=params,
            probes=DEFAULT_PROBES,
            # Grid-level opt-out for very large cells, where the capture
            # list dominates memory; the param is part of the config hash,
            # so traced and untraced cells never share a stored object.
            trace_probe=bool(params.get("trace_probe", True)),
        )
    )
    metrics = dict(run.metrics)
    # Long-lived runs leave cancelled timers behind; compacting here keeps
    # the accounting honest and exercises the reclamation path every cell.
    metrics["events_processed"] = run.sim.processed_events
    metrics["events_compacted"] = run.sim.compact()
    metrics["sim_time_end"] = run.sim.now
    return metrics


def run_cell_with_telemetry(spec_dict: Mapping, campaign_seed: int) -> dict:
    """Run one cell and wrap its metrics with execution telemetry.

    The wrapper the engine actually ships to workers: the ``result``
    entry is exactly :func:`run_cell`'s deterministic dict (the only
    thing that reaches the store, baselines and canonical JSON), while the
    ``telemetry`` entry carries the wall-clock side channel — wall time,
    simulator events, events per wall second — that
    :class:`repro.obs.telemetry.CellTelemetry` is built from.
    """
    started = time.perf_counter()
    result = run_cell(spec_dict, campaign_seed)
    wall = time.perf_counter() - started
    sim_events = int(result.get("events_processed", 0))
    return {
        "result": result,
        "telemetry": {
            "wall_time_s": wall,
            "sim_events": sim_events,
            "events_per_s": (sim_events / wall) if wall > 0 else 0.0,
        },
    }
