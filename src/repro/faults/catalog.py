"""Faulted scenario variants: adversarial behaviour as a sweepable axis.

Every builder here pairs an existing scenario with a seed-derived fault
plan; :mod:`repro.workloads.registry` names them as ``faulted_*``
scenarios, so each one is a sweep axis value for every registered
workload — the ``workloads`` grid picks them up automatically, and the
dedicated ``fuzz`` grid sweeps the fault-plan seed.
:data:`FAULTED_SCENARIOS` (kept next to the scenario names, re-exported
here) records each variant's *clean twin*, which is what
:mod:`repro.analysis.faults` diffs robustness against.
"""

from __future__ import annotations

from dataclasses import replace

from repro.faults.inject import DEFAULT_FAULT_HORIZON, FaultInjector, faulted
from repro.faults.middlebox import FaultingMiddlebox
from repro.faults.plan import FaultPlan
from repro.netem.scenarios import (
    Scenario,
    build_dual_homed,
    build_lan,
    build_middlebox_path,
    build_natted,
)
from repro.sim.engine import Simulator
from repro.sim.randomness import derive_seed
from repro.workloads.registry import FAULTED_SCENARIOS  # re-exported

#: The fault profile of ``faulted_path``'s plans: segment mutations only.
PATH_FAULT_PROFILE = "segment"


#: The link-level variants: the clean topology under a plan derived from
#: the cell seed (``SCENARIOS["faulted_<base>"]``).
build_faulted_dual_homed = faulted(build_dual_homed, "dual_homed")
build_faulted_lan = faulted(build_lan, "lan")
build_faulted_natted = faulted(build_natted, "natted")


def build_faulted_path(sim: Simulator) -> Scenario:
    """Dual-homed topology with a plan-driven FaultingMiddlebox on path 0.

    Unlike the link-level ``faulted_*`` variants, the adversary here is a
    single device on the primary path (the paper's §3 middlebox), so
    segment mutations happen in the middle of one path while the secondary
    path stays honest.  The plan's only target is the middlebox; it is a
    ``segment``-profile plan (no link flaps) derived from the cell seed.
    """
    base = build_middlebox_path(
        sim,
        "faulted-path",
        lambda topo: topo.add_middlebox(FaultingMiddlebox(sim, "mbox")),
        leg_prefix="mbox",
    )
    box = base.middlebox
    plan = FaultPlan.generate(
        derive_seed(sim.random.seed, "fault-plan", "faulted_path", PATH_FAULT_PROFILE),
        targets=[box.target_name],
        profile=PATH_FAULT_PROFILE,
        horizon=DEFAULT_FAULT_HORIZON,
    )
    injector = FaultInjector(sim, {box.target_name: box.engine}, plan)
    injector.install()
    return replace(base, fault_injector=injector, fault_plan=plan)


def build_faulted_downgrade(sim: Simulator) -> Scenario:
    """Dual-homed topology replaying the curated ``mpcapable_strip`` plan.

    The plan is fixed (not seed-derived): MP_CAPABLE is stripped on path 0
    from t=0, so the initial handshake of every cell downgrades to a
    plain-TCP fallback while the seed axis still varies the traffic.  This
    is the committed fallback-regression scenario of the ``downgrade``
    grid.
    """
    from repro.faults.plans import named_plan

    builder = faulted(
        build_dual_homed,
        "dual_homed",
        plan=named_plan("mpcapable_strip", DEFAULT_FAULT_HORIZON),
    )
    return builder(sim)
