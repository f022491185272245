"""``repro.obs`` — cross-cutting observability for the simulator.

Three pieces, all deterministic and all free when unused:

* **Structured event tracing** (:mod:`repro.obs.events`): an opt-in,
  bounded, category-filtered :class:`EventLog` stamped with simulated
  time.  Instrumentation hooks live in the stack itself — connection
  and subflow state transitions, scheduler decisions, path-manager
  actions, timer fires and retransmissions, fault applications,
  fallback transitions — but cost a single ``None`` check when no log
  is attached to ``Simulator.event_log``.
* **Counters** (:mod:`repro.obs.counters`): named monotonic counters
  per scope, pulled (never pushed) at collect time by the ``events``
  probe.
* **Exports and telemetry** (:mod:`repro.obs.export`,
  :mod:`repro.obs.telemetry`): byte-stable JSONL and Chrome-trace-format
  dumps of a log, and per-cell :class:`CellTelemetry` the sweep engine
  records outside the config hash and gated payloads.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "CATEGORIES": "repro.obs.events",
    "DEFAULT_LIMIT": "repro.obs.events",
    "CellTelemetry": "repro.obs.telemetry",
    "CounterRegistry": "repro.obs.counters",
    "EventLog": "repro.obs.events",
    "TraceEvent": "repro.obs.events",
    "chrome_trace": "repro.obs.export",
    "events_jsonl": "repro.obs.export",
    "format_telemetry_report": "repro.obs.telemetry",
    "stack_counters": "repro.obs.counters",
    "summarize_telemetry": "repro.obs.telemetry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
