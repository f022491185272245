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
from typing import Optional

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
from repro.workloads.registry import FAULTED_SCENARIOS, SCENARIOS, register_scenario


def register_faulted_variant(name: str, base_name: str, profile: str = "default") -> None:
    """Register ``faulted(<base>)`` as a scenario with a recorded clean twin."""
    base_builder = SCENARIOS[base_name]
    register_scenario(name, faulted(base_builder, base_name, profile=profile))
    FAULTED_SCENARIOS[name] = base_name


#: The link-level variants: the clean topology under a plan derived from
#: the cell seed (``SCENARIOS["faulted_<base>"]``).
build_faulted_dual_homed = faulted(build_dual_homed, "dual_homed")
build_faulted_lan = faulted(build_lan, "lan")
build_faulted_natted = faulted(build_natted, "natted")


def build_faulted_path(
    sim: Simulator,
    plan: Optional[FaultPlan] = None,
    fault_seed: Optional[int] = None,
    profile: str = "segment",
    horizon: float = DEFAULT_FAULT_HORIZON,
) -> Scenario:
    """Dual-homed topology with a plan-driven FaultingMiddlebox on path 0.

    Unlike the link-level ``faulted_*`` variants, the adversary here is a
    single device on the primary path (the paper's §3 middlebox), so
    segment mutations happen in the middle of one path while the secondary
    path stays honest.  The plan's only target is the middlebox.
    """
    base = build_middlebox_path(
        sim,
        "faulted-path",
        lambda topo: topo.add_middlebox(FaultingMiddlebox(sim, "mbox")),
        leg_prefix="mbox",
    )
    box = base.middlebox
    if plan is None:
        seed = (
            fault_seed
            if fault_seed is not None
            else derive_seed(sim.random.seed, "fault-plan", "faulted_path", profile)
        )
        plan = FaultPlan.generate(
            seed, targets=[box.target_name], profile=profile, horizon=horizon
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
