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

from repro.sweep.backends import (
    BACKENDS,
    ExecutionBackend,
    PoolUnavailableError,
    ProcessPoolBackend,
    SerialBackend,
    SubprocessShardBackend,
    resolve_backend,
    run_worker_shard,
)
from repro.sweep.baseline import (
    BASELINE_FORMAT_VERSION,
    Baseline,
    BaselineCell,
    baseline_from_manifest,
    baseline_from_store,
    load_baseline,
    write_baseline,
)
from repro.sweep.cells import (
    CONTROLLERS,
    EXPERIMENTS,
    SCENARIOS,
    run_cell,
    run_cell_with_telemetry,
    trace_digest,
)
from repro.sweep.diff import (
    DEFAULT_TOLERANCES,
    DIFF_FORMAT_VERSION,
    CampaignDiff,
    CellDiff,
    MetricDelta,
    Tolerance,
    diff_campaigns,
    metric_family,
)
from repro.sweep.engine import (
    CampaignPlan,
    CampaignResult,
    CellOutcome,
    execute_plan,
    merge_campaign,
    plan_campaign,
    run_campaign,
)
from repro.sweep.grid import CampaignGrid, CellSpec, SWEEP_FORMAT_VERSION
from repro.sweep.report import format_campaign_report, format_diff_report

__all__ = [
    "CampaignGrid",
    "CellSpec",
    "CellOutcome",
    "CampaignPlan",
    "CampaignResult",
    "run_campaign",
    "plan_campaign",
    "execute_plan",
    "merge_campaign",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "SubprocessShardBackend",
    "PoolUnavailableError",
    "BACKENDS",
    "resolve_backend",
    "run_worker_shard",
    "run_cell",
    "run_cell_with_telemetry",
    "trace_digest",
    "format_campaign_report",
    "format_diff_report",
    "SCENARIOS",
    "CONTROLLERS",
    "EXPERIMENTS",
    "SWEEP_FORMAT_VERSION",
    "Baseline",
    "BaselineCell",
    "baseline_from_store",
    "baseline_from_manifest",
    "load_baseline",
    "write_baseline",
    "BASELINE_FORMAT_VERSION",
    "CampaignDiff",
    "CellDiff",
    "MetricDelta",
    "Tolerance",
    "diff_campaigns",
    "metric_family",
    "DEFAULT_TOLERANCES",
    "DIFF_FORMAT_VERSION",
]
