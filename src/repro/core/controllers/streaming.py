"""§4.3 — Smarter streaming: per-block progress monitoring.

The streaming application of the paper sends one 64 KB block every second
and expects each block to be delivered within the second.  The controller
knows that pattern (in a deployment the application would communicate it,
e.g. through socket intents) and enforces it with two rules:

* 500 ms after the start of each block it queries the connection-level
  ``snd_una`` (the data-level acknowledgement point); if less than half the
  block got through, the current path is under-performing and a subflow is
  opened on the other interface;
* it watches the ``timeout`` events and immediately closes any subflow
  whose RTO grew beyond one second, so that the scheduler stops trusting a
  path that can only hurt the block delay.
"""

from __future__ import annotations

from typing import Optional

from repro.core.commands import CommandReply
from repro.core.controller import SubflowController
from repro.core.events import ConnClosedEvent, ConnEstablishedEvent, TimeoutEvent
from repro.core.library import PathManagerLibrary
from repro.net.addressing import IPAddress
from repro.sim.timers import PeriodicTimer


class SmartStreamingController(SubflowController):
    """Keep a fixed-rate stream inside its per-block deadline."""

    name = "smart-streaming"

    def __init__(
        self,
        library: PathManagerLibrary,
        secondary_local_address: IPAddress | str,
        secondary_remote_address: Optional[IPAddress | str] = None,
        secondary_remote_port: int = 0,
        block_interval: float = 1.0,
        progress_threshold: int = 32 * 1024,
        rto_limit: float = 1.0,
    ) -> None:
        super().__init__(library)
        self._secondary_local = IPAddress(secondary_local_address)
        self._secondary_remote = (
            IPAddress(secondary_remote_address) if secondary_remote_address is not None else None
        )
        self._secondary_remote_port = secondary_remote_port
        self._block_interval = block_interval
        self._progress_threshold = progress_threshold
        self._rto_limit = rto_limit
        self._timers: dict[int, PeriodicTimer] = {}
        self._block_start_una: dict[int, int] = {}
        self._secondary_opened: set[int] = set()
        self.progress_checks = 0
        self.slow_blocks_detected = 0
        self.subflows_closed_for_rto = 0

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------
    def on_conn_established(self, event: ConnEstablishedEvent) -> None:
        view = self.state.connection(event.token)
        if not view.is_client or event.token in self._timers:
            return
        timer = PeriodicTimer(
            self.sim,
            self._block_interval,
            lambda token=event.token: self._on_block_start(token),
            name=f"stream-{event.token:#x}",
        )
        self._timers[event.token] = timer
        # Align to the application's block schedule: the first block is
        # written as soon as the connection is established.
        self._on_block_start(event.token)
        timer.start(self._block_interval)

    def on_timeout(self, event: TimeoutEvent) -> None:
        if event.rto <= self._rto_limit:
            return
        view = self.state.connection(event.token)
        if view.closed:
            return
        flow = view.subflows.get(event.subflow_id)
        if flow is None or flow.closed:
            return
        if len(view.active_subflows) <= 1 and event.token not in self._secondary_opened:
            # Never drop the only path before the alternative exists; open
            # the secondary first, the RTO rule will fire again if needed.
            self._open_secondary(event.token)
            return
        self.subflows_closed_for_rto += 1
        self.library.remove_subflow(event.token, event.subflow_id)

    def on_conn_closed(self, event: ConnClosedEvent) -> None:
        timer = self._timers.pop(event.token, None)
        if timer is not None:
            timer.stop()
        self._block_start_una.pop(event.token, None)
        self._secondary_opened.discard(event.token)

    # ------------------------------------------------------------------
    # periodic monitoring
    # ------------------------------------------------------------------
    def _on_block_start(self, token: int) -> None:
        view = self.state.connections.get(token)
        if view is None or view.closed:
            return
        self.library.get_conn_info(token, lambda reply: self._record_block_start(token, reply))
        self.sim.schedule(0.5, self._check_progress, token)

    def _record_block_start(self, token: int, reply: CommandReply) -> None:
        if reply.ok:
            self._block_start_una[token] = int(reply.payload.get("data_una", 0))

    def _check_progress(self, token: int) -> None:
        view = self.state.connections.get(token)
        if view is None or view.closed:
            return
        self.progress_checks += 1
        self.library.get_conn_info(token, lambda reply: self._evaluate_progress(token, reply))

    def _evaluate_progress(self, token: int, reply: CommandReply) -> None:
        if not reply.ok:
            return
        start_una = self._block_start_una.get(token)
        if start_una is None:
            return
        progressed = int(reply.payload.get("data_una", 0)) - start_una
        if progressed >= self._progress_threshold:
            return
        self.slow_blocks_detected += 1
        self._open_secondary(token)

    def _open_secondary(self, token: int) -> None:
        if token in self._secondary_opened:
            return
        view = self.state.connections.get(token)
        if view is None or view.closed:
            return
        remote = self._secondary_remote
        port = self._secondary_remote_port
        if remote is None and view.four_tuple is not None:
            remote = view.four_tuple.dst
            port = view.four_tuple.dport
        self._secondary_opened.add(token)
        self.library.create_subflow(token, self._secondary_local, remote_address=remote, remote_port=port)
