"""Mininet-like topology construction and the paper's canned scenarios."""

from repro.netem.topology import Topology
from repro.netem.scenarios import (
    Scenario,
    build_addaddr_stripped,
    build_asymmetric_loss,
    build_bufferbloat_cellular,
    build_dual_homed,
    build_ecmp,
    build_lan,
    build_natted,
    build_path_failure_recovery,
    build_wifi_lte_handover,
)

__all__ = [
    "Topology",
    "Scenario",
    "build_dual_homed",
    "build_ecmp",
    "build_lan",
    "build_natted",
    "build_wifi_lte_handover",
    "build_asymmetric_loss",
    "build_bufferbloat_cellular",
    "build_path_failure_recovery",
    "build_addaddr_stripped",
]
