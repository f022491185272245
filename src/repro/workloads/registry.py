"""The composition registries: scenario × controller × workload.

Every axis of the orthogonal grid lives here *by name*.  Each registry is
a mapping whose keys are all written down in this file and whose values
are ``"module:attribute"`` references, imported the first time
``registry[name]`` is asked for: listing, validating and planning a grid
touch names only, and a process loads exactly the scenario builders,
client stacks and workloads its cells resolve.  Scenario builders live in
:mod:`repro.netem.scenarios` (faulted variants in
:mod:`repro.faults.catalog`), client set-ups in
:mod:`repro.workloads.kernel_clients` / :mod:`repro.workloads.smapp_clients`,
workloads in :mod:`repro.workloads.catalog`.  The sweep grid validation,
the harness and the runner's ``list`` subcommand all read the same
registries, so adding an entry makes it sweepable, runnable and
discoverable at once.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Iterator, Mapping

from repro.workloads.base import ClientSetup, HarnessContext, Workload


class Registry(Mapping):
    """One grid axis: names known statically, implementations loaded on lookup.

    Iteration, ``in``, ``len`` and ``sorted`` read names only;
    ``registry[name]`` imports the implementation behind a
    ``"module:attribute"`` reference once and answers from the resolved
    entry afterwards.
    """

    def __init__(self, kind: str, entries: Mapping[str, str]) -> None:
        self._kind = kind
        self._entries: dict[str, Any] = dict(entries)

    def __getitem__(self, name: str) -> Any:
        entry = self._entries[name]
        if isinstance(entry, str):
            module, _, attribute = entry.partition(":")
            entry = self._entries[name] = getattr(import_module(module), attribute)
        return entry

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def register(self, name: str, implementation: Any) -> None:
        """Add a ready implementation under a new name."""
        if name in self._entries:
            raise ValueError(f"{self._kind} {name!r} is already registered")
        self._entries[name] = implementation


# ----------------------------------------------------------------------
# scenario registry — every entry is ``builder(sim) -> scenario`` where the
# scenario exposes client / server hosts and per-path address lists.
# ----------------------------------------------------------------------
SCENARIOS = Registry(
    "scenario",
    {
        "dual_homed": "repro.netem.scenarios:build_dual_homed",
        "natted": "repro.netem.scenarios:build_natted",
        "ecmp": "repro.netem.scenarios:build_ecmp",
        "lan": "repro.netem.scenarios:build_lan",
        "wifi_lte_handover": "repro.netem.scenarios:build_wifi_lte_handover",
        "asymmetric_loss": "repro.netem.scenarios:build_asymmetric_loss",
        "bufferbloat_cellular": "repro.netem.scenarios:build_bufferbloat_cellular",
        "path_failure_recovery": "repro.netem.scenarios:build_path_failure_recovery",
        "addaddr_stripped": "repro.netem.scenarios:build_addaddr_stripped",
        "mpcapable_stripped": "repro.netem.scenarios:build_mpcapable_stripped",
        "mpcapable_stripped_synack": "repro.netem.scenarios:build_mpcapable_stripped_synack",
        "faulted_dual_homed": "repro.faults.catalog:build_faulted_dual_homed",
        "faulted_lan": "repro.faults.catalog:build_faulted_lan",
        "faulted_natted": "repro.faults.catalog:build_faulted_natted",
        "faulted_path": "repro.faults.catalog:build_faulted_path",
        "faulted_downgrade": "repro.faults.catalog:build_faulted_downgrade",
    },
)

#: Faulted scenario name → the clean scenario it should be compared to
#: (what :mod:`repro.analysis.faults` diffs robustness against).  The static
#: MP_CAPABLE strippers are fallback scenarios by construction; recording
#: dual_homed as their clean twin lets the triage judge the downgrade's
#: goodput retention like any other faulted cell.
FAULTED_SCENARIOS: dict[str, str] = {
    "faulted_dual_homed": "dual_homed",
    "faulted_lan": "lan",
    "faulted_natted": "natted",
    "faulted_path": "dual_homed",
    "faulted_downgrade": "dual_homed",
    "mpcapable_stripped": "dual_homed",
    "mpcapable_stripped_synack": "dual_homed",
}


def register_scenario(name: str, builder: Callable) -> None:
    """Register a scenario builder under a new grid-axis name."""
    SCENARIOS.register(name, builder)


# ----------------------------------------------------------------------
# controller registry — ``setup(ctx) -> ClientSetup`` builds the client-side
# stack with the requested path manager or userspace controller.
# ----------------------------------------------------------------------
CONTROLLERS = Registry(
    "controller",
    {
        "passive": "repro.workloads.kernel_clients:passive",
        "fullmesh": "repro.workloads.kernel_clients:fullmesh",
        "ndiffports": "repro.workloads.kernel_clients:ndiffports",
        "smart_backup": "repro.workloads.smapp_clients:smart_backup",
        "refresh": "repro.workloads.smapp_clients:refresh",
        "userspace_fullmesh": "repro.workloads.smapp_clients:userspace_fullmesh",
        "userspace_ndiffports": "repro.workloads.smapp_clients:userspace_ndiffports",
    },
)


def register_controller(name: str, setup: Callable[[HarnessContext], ClientSetup]) -> None:
    """Register a client-stack setup under a new grid-axis name."""
    CONTROLLERS.register(name, setup)


# ----------------------------------------------------------------------
# workload registry — the built-ins are instances in repro.workloads.catalog.
# ----------------------------------------------------------------------
WORKLOADS = Registry(
    "workload",
    {
        "bulk_transfer": "repro.workloads.catalog:BULK",
        "streaming": "repro.workloads.catalog:STREAMING",
        "http": "repro.workloads.catalog:HTTP",
        "longlived": "repro.workloads.catalog:LONGLIVED",
    },
)


def register_workload(workload: Workload) -> Workload:
    """Register a workload instance under its ``name``."""
    WORKLOADS.register(workload.name, workload)
    return workload


def get_workload(name_or_workload) -> Workload:
    """Resolve a workload spec entry (registry name or ready instance)."""
    if isinstance(name_or_workload, Workload):
        return name_or_workload
    try:
        return WORKLOADS[name_or_workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {name_or_workload!r} (have {sorted(WORKLOADS)})"
        ) from None
