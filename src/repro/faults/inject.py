"""Wiring fault plans into built scenarios.

:class:`FaultInjector` schedules a plan's events onto a simulator and owns
one :class:`~repro.faults.models.MutationEngine` per targeted choke point;
:func:`faulted` is the scenario combinator that wraps any existing scenario
builder so the whole thing plugs into the workload harness as just another
registry entry.  When no explicit plan is given, the combinator derives the
plan seed from the simulator's own seed (``derive_seed(sim_seed,
"fault-plan", base, profile)``), so the sweep's ordinary seed axis doubles
as the fault-plan axis: sweep seeds and you sweep adversaries.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Union

from repro.faults.models import FAULT_MODELS, MutationEngine
from repro.faults.plan import FaultPlan
from repro.net.interface import Interface
from repro.net.link import Link
from repro.net.packet import Segment
from repro.sim.engine import Simulator
from repro.sim.randomness import derive_seed

#: Horizon used for seed-derived plans (matches the sweep grids' cells).
DEFAULT_FAULT_HORIZON = 15.0


class LinkFaultFilter:
    """Adapts a :class:`MutationEngine` to one link's fault-handler hook."""

    def __init__(self, sim: Simulator, link: Link) -> None:
        self.engine = MutationEngine(sim, link.name, self._reinject)
        self._link = link
        link.set_fault_handler(self)

    def __call__(self, segment: Segment, from_iface: Interface) -> list[Segment]:
        return self.engine.process(segment, from_iface)

    def _reinject(self, segment: Segment, from_iface: Interface) -> None:
        # Held segments bypass the handler: they were already mutated once.
        self._link.inject(segment, from_iface)


class FaultInjector:
    """Schedules a plan's events and aggregates the resulting fault stats.

    ``targets`` maps target names to either a :class:`Link` (a
    :class:`LinkFaultFilter` is installed) or a ready
    :class:`MutationEngine` (the :class:`FaultingMiddlebox` path).
    """

    def __init__(
        self,
        sim: Simulator,
        targets: Mapping[str, Union[Link, MutationEngine]],
        plan: FaultPlan,
    ) -> None:
        plan.validate(list(targets))
        self._sim = sim
        self._plan = plan
        self._links: dict[str, Link] = {}
        self._engines: dict[str, MutationEngine] = {}
        for name, target in targets.items():
            if isinstance(target, MutationEngine):
                self._engines[name] = target
            else:
                self._links[name] = target
                self._engines[name] = LinkFaultFilter(sim, target).engine
        self.events_fired = 0
        self.link_flaps = 0
        # Per-target flap nesting: (loss rate before the first flap, number
        # of flap windows currently open).  Restoring only when the last
        # window closes keeps overlapping flaps from "restoring" to the
        # 100% loss a later flap captured.
        self._flap_state: dict[str, list] = {}
        self._installed = False

    @property
    def plan(self) -> FaultPlan:
        """The schedule this injector replays."""
        return self._plan

    def install(self) -> None:
        """Schedule every plan event (idempotent)."""
        if self._installed:
            return
        self._installed = True
        for event in self._plan.events:
            self._sim.schedule_at(event.time, self._fire, event)

    def _fire(self, event) -> None:
        self.events_fired += 1
        # Lazy lookup, not a cached channel: the injector is built during
        # scenario construction, before the events probe attaches a log.
        log = self._sim.event_log
        if log is not None and log.enabled("fault"):
            log.emit(
                self._sim.now, "fault", event.mutation, event.target,
                dict(event.params) or None,
            )
        model = FAULT_MODELS[event.mutation]
        if model.kind == "link":
            self._flap(event)
            return
        engine = self._engines[event.target]
        engine.activate(event)
        duration = event.duration
        if model.kind == "window" and duration is not None:
            self._sim.schedule(duration, engine.deactivate, event)

    def _flap(self, event) -> None:
        link = self._links.get(event.target)
        if link is None:
            # A link-kind event aimed at a middlebox engine has no link to
            # act on; count it as fired but otherwise ignore it.
            return
        self.link_flaps += 1
        state = self._flap_state.get(event.target)
        if state is None:
            state = self._flap_state[event.target] = [link.loss_rate, 0]
        state[1] += 1
        link.set_loss_rate(1.0)
        # FaultPlan.validate guarantees link events carry a duration; a
        # silent 1.0 s default here used to mask malformed plans.
        self._sim.schedule(event.duration, self._unflap, event.target)

    def _unflap(self, target: str) -> None:
        state = self._flap_state[target]
        state[1] -= 1
        if state[1] == 0:
            self._links[target].set_loss_rate(state[0])
            del self._flap_state[target]
            log = self._sim.event_log
            if log is not None and log.enabled("fault"):
                log.emit(self._sim.now, "fault", "link_restored", target)

    def stats(self) -> dict[str, int]:
        """Deterministic aggregate counters across every targeted choke point."""
        totals = {
            "events_scheduled": len(self._plan.events),
            "events_fired": self.events_fired,
            "link_flaps": self.link_flaps,
        }
        for engine in self._engines.values():
            for key, value in engine.counters.items():
                totals[key] = totals.get(key, 0) + value
        return dict(sorted(totals.items()))


class FaultedScenario:
    """A built scenario wrapped with a fault injector.

    Everything the harness and the probes ask of a scenario (client,
    server, addresses, topology, sim) is delegated to the base scenario;
    the wrapper only adds :attr:`fault_injector` and :attr:`fault_plan`,
    which is exactly what :class:`repro.workloads.probes.FaultProbe` keys
    on.
    """

    def __init__(self, base, injector: FaultInjector, plan: FaultPlan) -> None:
        self.base = base
        self.fault_injector = injector
        self.fault_plan = plan

    def __getattr__(self, name: str):
        return getattr(self.base, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultedScenario {type(self.base).__name__} events={len(self.fault_plan)}>"


def fault_targets(scenario) -> dict[str, Link]:
    """The links of a built scenario that fault plans may target.

    Prefers the scenario's declared per-path links (the convention every
    scenario dataclass follows); falls back to the single ``link`` of
    LAN-style scenarios, then to every link of the topology.
    """
    links = getattr(scenario, "path_links", None)
    if links:
        return {link.name: link for link in links}
    single = getattr(scenario, "link", None)
    if single is not None:
        return {single.name: single}
    return dict(scenario.topology.links)


def faulted(
    base_builder: Callable,
    base_name: str,
    plan: Optional[FaultPlan] = None,
    profile: str = "default",
    fault_seed: Optional[int] = None,
    horizon: float = DEFAULT_FAULT_HORIZON,
) -> Callable:
    """Wrap a scenario builder so its runs happen under a fault plan.

    With an explicit ``plan`` the wrapped builder replays exactly that
    schedule (the shrink/counterexample path).  Otherwise the plan is
    generated from ``fault_seed``, or — the sweep path — from the
    simulator's own seed, so each sweep cell gets its own deterministic
    adversary.
    """
    def build(sim: Simulator):
        """Build the base scenario and install its fault plan (see :func:`faulted`)."""
        scenario = base_builder(sim)
        targets = fault_targets(scenario)
        the_plan = plan
        if the_plan is None:
            seed = (
                fault_seed
                if fault_seed is not None
                else derive_seed(sim.random.seed, "fault-plan", base_name, profile)
            )
            the_plan = FaultPlan.generate(
                seed, targets=sorted(targets), profile=profile, horizon=horizon
            )
        injector = FaultInjector(sim, targets, the_plan)
        injector.install()
        return FaultedScenario(scenario, injector, the_plan)

    build.__name__ = f"faulted_{base_name}"
    build.__qualname__ = build.__name__
    return build
