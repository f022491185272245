"""Wiring fault plans into built scenarios.

:class:`FaultInjector` schedules a plan's events onto a simulator and owns
one :class:`~repro.faults.models.MutationEngine` per targeted choke point;
:func:`faulted` is the scenario combinator that wraps any existing scenario
builder so the whole thing plugs into the workload harness as just another
registry entry.  When no explicit plan is given, the combinator derives the
plan seed from the simulator's own seed (``derive_seed(sim_seed,
"fault-plan", base, "default")``), so the sweep's ordinary seed axis doubles
as the fault-plan axis: sweep seeds and you sweep adversaries.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Union

from repro.faults.models import FAULT_MODELS, MutationEngine
from repro.faults.plan import FaultPlan
from repro.net.interface import Interface
from repro.net.link import Link
from repro.net.packet import Segment
from repro.sim.engine import Simulator
from repro.sim.randomness import derive_seed

if TYPE_CHECKING:
    from repro.netem.scenarios import Scenario

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
    :class:`MutationEngine` (the :class:`FaultingMiddlebox` path).  A
    link-kind event (a flap) needs a link: aiming one at an engine raises
    :class:`ValueError`.
    """

    def __init__(
        self,
        sim: Simulator,
        targets: Mapping[str, Union[Link, MutationEngine]],
        plan: FaultPlan,
    ) -> None:
        plan.validate(list(targets))
        for event in plan.events:
            if FAULT_MODELS[event.mutation].kind == "link" and isinstance(
                targets[event.target], MutationEngine
            ):
                raise ValueError(f"link fault event needs a link target: {event.describe()}")
        self._sim = sim
        #: The schedule this injector replays.
        self.plan = plan
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

    def install(self) -> None:
        """Schedule every plan event (idempotent)."""
        if self._installed:
            return
        self._installed = True
        for event in self.plan.events:
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
        link = self._links[event.target]
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
            "events_scheduled": len(self.plan.events),
            "events_fired": self.events_fired,
            "link_flaps": self.link_flaps,
        }
        for engine in self._engines.values():
            for key, value in engine.counters.items():
                totals[key] = totals.get(key, 0) + value
        return dict(sorted(totals.items()))


def fault_targets(scenario: Scenario) -> dict[str, Link]:
    """The links of a built scenario that fault plans may target: its per-path links."""
    return {link.name: link for link in scenario.path_links}


def faulted(base_builder: Callable, base_name: str, plan: Optional[FaultPlan] = None) -> Callable:
    """Wrap a scenario builder so its runs happen under a fault plan.

    With an explicit ``plan`` the wrapped builder replays exactly that
    schedule (the shrink/counterexample path).  Otherwise — the sweep path
    — a ``default``-profile plan over :data:`DEFAULT_FAULT_HORIZON` is
    generated from the simulator's own seed, so each sweep cell gets its
    own deterministic adversary.
    """
    def build(sim: Simulator) -> Scenario:
        """Build the base scenario and install its fault plan (see :func:`faulted`)."""
        scenario = base_builder(sim)
        targets = fault_targets(scenario)
        the_plan = plan
        if the_plan is None:
            the_plan = FaultPlan.generate(
                derive_seed(sim.random.seed, "fault-plan", base_name, "default"),
                targets=sorted(targets),
                horizon=DEFAULT_FAULT_HORIZON,
            )
        injector = FaultInjector(sim, targets, the_plan)
        injector.install()
        return replace(scenario, fault_injector=injector, fault_plan=the_plan)

    build.__name__ = f"faulted_{base_name}"
    build.__qualname__ = build.__name__
    return build
