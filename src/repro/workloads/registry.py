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
discoverable at once.  A line in these tables is the one way to add an
entry: a ``subprocess`` worker imports this module afresh, so an entry
added at run time would be unknown to it.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Iterator, Mapping

from repro.workloads.base import Workload


class Registry(Mapping):
    """One grid axis: names known statically, implementations loaded on lookup.

    Iteration, ``in``, ``len`` and ``sorted`` read names only;
    ``registry[name]`` imports the implementation behind a
    ``"module:attribute"`` reference once and answers from the resolved
    entry afterwards.
    """

    def __init__(self, entries: Mapping[str, str]) -> None:
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


# ----------------------------------------------------------------------
# scenario registry — every entry is ``builder(sim, **keywords) -> Scenario``
# (the one dataclass of repro.netem.scenarios); the harness passes the cell
# params named after the builder's keywords.
# ----------------------------------------------------------------------
SCENARIOS = Registry(
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


# ----------------------------------------------------------------------
# controller registry — ``setup(ctx) -> ClientSetup`` builds the client-side
# stack with the requested path manager or userspace controller.
# ----------------------------------------------------------------------
CONTROLLERS = Registry(
    {
        "passive": "repro.workloads.kernel_clients:passive",
        "fullmesh": "repro.workloads.kernel_clients:fullmesh",
        "ndiffports": "repro.workloads.kernel_clients:ndiffports",
        "smart_backup": "repro.workloads.smapp_clients:smart_backup",
        "smart_streaming": "repro.workloads.smapp_clients:smart_streaming",
        "refresh": "repro.workloads.smapp_clients:refresh",
        "userspace_fullmesh": "repro.workloads.smapp_clients:userspace_fullmesh",
        "userspace_ndiffports": "repro.workloads.smapp_clients:userspace_ndiffports",
    },
)


# ----------------------------------------------------------------------
# workload registry — the built-ins are instances in repro.workloads.catalog.
# ----------------------------------------------------------------------
WORKLOADS = Registry(
    {
        "bulk_transfer": "repro.workloads.catalog:BULK",
        "streaming": "repro.workloads.catalog:STREAMING",
        "http": "repro.workloads.catalog:HTTP",
        "longlived": "repro.workloads.catalog:LONGLIVED",
    },
)


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
