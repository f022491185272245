"""The unified workload layer: one composition for figures, apps and sweeps.

``repro.workloads`` owns the orthogonal grid the rest of the repo runs on:

* the **registries** (scenario, controller, workload, probe) — one shared
  namespace for the sweep engine, the figure presets and the CLI;
* the **harness** — the single assembly path that composes one point of
  the grid into a deterministic simulation run;
* the **probes** — pluggable metric extraction feeding both figure reports
  and sweep aggregation.

Register a workload (see :mod:`repro.workloads.catalog` for the pattern)
and it immediately becomes a sweep experiment over every scenario and a
runnable CLI cell.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "Workload": "repro.workloads.base",
    "ClientSetup": "repro.workloads.base",
    "HarnessContext": "repro.workloads.base",
    "Harness": "repro.workloads.harness",
    "HarnessSpec": "repro.workloads.harness",
    "HarnessRun": "repro.workloads.harness",
    "run_workload": "repro.workloads.harness",
    "DEFAULT_SERVER_PORT": "repro.workloads.harness",
    "Probe": "repro.workloads.probes",
    "TraceProbe": "repro.workloads.probes",
    "GoodputProbe": "repro.workloads.probes",
    "SubflowProbe": "repro.workloads.probes",
    "AppLatencyProbe": "repro.workloads.probes",
    "FaultProbe": "repro.workloads.probes",
    "FallbackProbe": "repro.workloads.probes",
    "AggregateProbe": "repro.workloads.probes",
    "EventsProbe": "repro.workloads.probes",
    "PROBES": "repro.workloads.probes",
    "DEFAULT_PROBES": "repro.workloads.probes",
    "make_probe": "repro.workloads.probes",
    "trace_digest": "repro.workloads.probes",
    "SCENARIOS": "repro.workloads.registry",
    "CONTROLLERS": "repro.workloads.registry",
    "WORKLOADS": "repro.workloads.registry",
    "register_scenario": "repro.workloads.registry",
    "register_controller": "repro.workloads.registry",
    "register_workload": "repro.workloads.registry",
    "get_workload": "repro.workloads.registry",
    "BulkTransferWorkload": "repro.workloads.catalog",
    "StreamingWorkload": "repro.workloads.catalog",
    "HttpWorkload": "repro.workloads.catalog",
    "LongLivedWorkload": "repro.workloads.catalog",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
