"""Deterministic adversarial fault injection and fuzz campaigns.

The subsystem turns hostile-network behaviour — option stripping, DSS
corruption, sequence rewriting, segment splitting/coalescing, NAT
rebinding, link flaps, reordering, loss bursts — into a first-class,
sweepable axis:

* :mod:`repro.faults.plan` — explicit, seed-derived, serializable fault
  schedules (:class:`FaultPlan`);
* :mod:`repro.faults.models` — the fault model library and the
  per-choke-point :class:`MutationEngine`;
* :mod:`repro.faults.inject` — plan scheduling, the link-level fault
  filter and the :func:`faulted` scenario combinator;
* :mod:`repro.faults.middlebox` — the plan-driven
  :class:`FaultingMiddlebox`;
* :mod:`repro.faults.catalog` — registered ``faulted_*`` scenario
  variants and their clean twins;
* :mod:`repro.faults.plans` — curated, named fault plans;
* :mod:`repro.faults.shrink` — ddmin minimisation of failing plans into
  committable counterexample artifacts.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, imported on first attribute access.
_EXPORTS = {
    "FaultEvent": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "FAULT_FORMAT_VERSION": "repro.faults.plan",
    "FaultModel": "repro.faults.models",
    "FAULT_MODELS": "repro.faults.models",
    "PROFILES": "repro.faults.models",
    "profile_models": "repro.faults.models",
    "MutationEngine": "repro.faults.models",
    "FaultingMiddlebox": "repro.faults.middlebox",
    "MIDDLEBOXES": "repro.faults.middlebox",
    "FaultInjector": "repro.faults.inject",
    "LinkFaultFilter": "repro.faults.inject",
    "fault_targets": "repro.faults.inject",
    "faulted": "repro.faults.inject",
    "DEFAULT_FAULT_HORIZON": "repro.faults.inject",
    "NamedPlan": "repro.faults.plans",
    "NAMED_PLANS": "repro.faults.plans",
    "named_plan": "repro.faults.plans",
    "FAULTED_SCENARIOS": "repro.faults.catalog",
    "build_faulted_path": "repro.faults.catalog",
    "ShrinkResult": "repro.faults.shrink",
    "shrink_plan": "repro.faults.shrink",
    "cell_failure_predicate": "repro.faults.shrink",
    "counterexample_artifact": "repro.faults.shrink",
    "counterexample_json": "repro.faults.shrink",
    "write_counterexample": "repro.faults.shrink",
    "load_counterexample": "repro.faults.shrink",
    "COUNTEREXAMPLE_FORMAT_VERSION": "repro.faults.shrink",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
