"""§4.4 — Smarter exploitation of flow-based load balancing.

In an ECMP network the path of a subflow is decided by a hash of its
four-tuple, so a host cannot predict which path a new subflow will take.
The in-kernel ``ndiffports`` strategy just opens ``n`` subflows and hopes
for the best; when several hash onto the same path the transfer is stuck
with that collision forever.

The paper's Refresh controller (230 lines of C) opens ``n`` subflows with
random source ports, then every 2.5 seconds queries the ``pacing_rate`` of
every subflow, removes the one with the lowest rate and immediately creates
a replacement.  Colliding subflows have roughly half the rate of a
subflow that owns its path, so they get recycled until every path is used —
Figure 2c.
"""

from __future__ import annotations

from typing import Optional

from repro.core.commands import CommandReply
from repro.core.controller import SubflowController
from repro.core.events import ConnClosedEvent, ConnEstablishedEvent
from repro.core.library import PathManagerLibrary
from repro.sim.timers import PeriodicTimer


class RefreshController(SubflowController):
    """Continuously replace the slowest subflow to escape ECMP collisions."""

    name = "refresh"

    def __init__(
        self,
        library: PathManagerLibrary,
        subflow_count: int = 5,
        refresh_interval: float = 2.5,
    ) -> None:
        super().__init__(library)
        if subflow_count < 2:
            raise ValueError("the refresh controller needs at least two subflows")
        self._subflow_count = subflow_count
        self._refresh_interval = refresh_interval
        self._timers: dict[int, PeriodicTimer] = {}
        self._pending_rates: dict[int, dict[int, Optional[float]]] = {}
        self.refresh_rounds = 0
        self.subflows_refreshed = 0

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------
    def on_conn_established(self, event: ConnEstablishedEvent) -> None:
        view = self.state.connection(event.token)
        if not view.is_client or event.token in self._timers:
            return
        # Open the additional subflows immediately (random source ports are
        # chosen by the kernel, which is what spreads them over the ECMP
        # paths).
        for _ in range(self._subflow_count - 1):
            if view.four_tuple is None:
                break
            self.library.create_subflow(
                event.token,
                view.four_tuple.src,
                remote_address=view.four_tuple.dst,
                remote_port=view.four_tuple.dport,
            )
        timer = PeriodicTimer(
            self.sim,
            self._refresh_interval,
            lambda token=event.token: self._refresh(token),
            name=f"refresh-{event.token:#x}",
        )
        self._timers[event.token] = timer
        timer.start(2.5)  # first round after a 2.5 s warm-up

    def on_conn_closed(self, event: ConnClosedEvent) -> None:
        timer = self._timers.pop(event.token, None)
        if timer is not None:
            timer.stop()
        self._pending_rates.pop(event.token, None)

    # ------------------------------------------------------------------
    # the refresh loop
    # ------------------------------------------------------------------
    def _refresh(self, token: int) -> None:
        view = self.state.connections.get(token)
        if view is None or view.closed:
            return
        active = view.active_subflows
        if len(active) < 2:
            return
        self.refresh_rounds += 1
        pending: dict[int, Optional[float]] = {flow.subflow_id: None for flow in active}
        self._pending_rates[token] = pending
        for flow in active:
            self.library.get_subflow_info(
                token,
                flow.subflow_id,
                lambda reply, token=token, subflow_id=flow.subflow_id: self._record_rate(token, subflow_id, reply),
            )

    def _record_rate(self, token: int, subflow_id: int, reply: CommandReply) -> None:
        pending = self._pending_rates.get(token)
        if pending is None or subflow_id not in pending:
            return
        pending[subflow_id] = float(reply.payload.get("pacing_rate", 0.0)) if reply.ok else 0.0
        if any(rate is None for rate in pending.values()):
            return
        self._pending_rates.pop(token, None)
        self._evaluate(token, {sid: rate for sid, rate in pending.items() if rate is not None})

    def _evaluate(self, token: int, rates: dict[int, float]) -> None:
        view = self.state.connections.get(token)
        if view is None or view.closed or len(rates) < 2:
            return
        slowest_id = min(rates, key=lambda sid: rates[sid])
        slowest_rate = rates[slowest_id]
        others = [rate for sid, rate in rates.items() if sid != slowest_id]
        mean_others = sum(others) / len(others) if others else 0.0
        if mean_others > 0 and slowest_rate >= 0.8 * mean_others:
            # Every subflow performs comparably (the slowest within 80 % of
            # the others' mean): all paths are in use, do not churn for
            # nothing.
            return
        flow = view.subflows.get(slowest_id)
        if flow is None or flow.closed or flow.four_tuple is None:
            return
        self.subflows_refreshed += 1
        self.library.remove_subflow(token, slowest_id)
        # Immediately create a replacement with a fresh (random) source port.
        self.library.create_subflow(
            token,
            flow.four_tuple.src,
            remote_address=flow.four_tuple.dst,
            remote_port=flow.four_tuple.dport,
        )
