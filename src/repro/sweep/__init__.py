"""Parallel experiment sweep campaigns.

The paper evaluates one scenario per figure; this package turns the same
machinery into a campaign engine: declare a grid of experiment × scenario ×
scheduler × controller × seed, expand it into cells, run the cells across
worker processes (deterministically — see :mod:`repro.sweep.engine`), keep
completed cells in the content-addressed :class:`repro.store.CampaignStore`,
and aggregate the metrics into percentile tables and cross-scenario CDFs.

Cells execute through the unified workload harness
(:mod:`repro.workloads`): the experiment axis is the workload registry, so
every registered workload — bulk, streaming, http, longlived — sweeps over
every registered scenario with the same probe-based metric extraction the
figure presets use.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "CampaignGrid": "repro.sweep.grid",
    "CellSpec": "repro.sweep.grid",
    "CellOutcome": "repro.sweep.engine",
    "CampaignPlan": "repro.sweep.engine",
    "CampaignResult": "repro.sweep.engine",
    "run_campaign": "repro.sweep.engine",
    "plan_campaign": "repro.sweep.engine",
    "execute_plan": "repro.sweep.engine",
    "merge_campaign": "repro.sweep.engine",
    "ExecutionBackend": "repro.sweep.backends",
    "SerialBackend": "repro.sweep.backends",
    "ProcessPoolBackend": "repro.sweep.backends",
    "SubprocessShardBackend": "repro.sweep.backends",
    "PoolUnavailableError": "repro.sweep.backends",
    "BACKENDS": "repro.sweep.backends",
    "resolve_backend": "repro.sweep.backends",
    "run_worker_shard": "repro.sweep.backends",
    "run_cell": "repro.sweep.cells",
    "run_cell_with_telemetry": "repro.sweep.cells",
    "trace_digest": "repro.sweep.cells",
    "format_campaign_report": "repro.sweep.report",
    "format_diff_report": "repro.sweep.report",
    "SCENARIOS": "repro.sweep.cells",
    "CONTROLLERS": "repro.sweep.cells",
    "EXPERIMENTS": "repro.sweep.cells",
    "SWEEP_FORMAT_VERSION": "repro.sweep.grid",
    "Baseline": "repro.sweep.baseline",
    "BaselineCell": "repro.sweep.baseline",
    "baseline_from_store": "repro.sweep.baseline",
    "load_baseline": "repro.sweep.baseline",
    "write_baseline": "repro.sweep.baseline",
    "BASELINE_FORMAT_VERSION": "repro.sweep.baseline",
    "CampaignDiff": "repro.sweep.diff",
    "CellDiff": "repro.sweep.diff",
    "MetricDelta": "repro.sweep.diff",
    "Tolerance": "repro.sweep.diff",
    "diff_campaigns": "repro.sweep.diff",
    "metric_family": "repro.sweep.diff",
    "DEFAULT_TOLERANCES": "repro.sweep.diff",
    "DIFF_FORMAT_VERSION": "repro.sweep.diff",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
