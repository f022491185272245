"""§4.2 — Smarter backup: break-before-make handover on RTO growth.

RFC 6824 backup subflows are only used once every regular subflow has
*failed*, and with the default Linux configuration a subflow under heavy
loss only fails after ~15 retransmission-timer doublings — about twelve
minutes.  The paper's controller implements a much better model for mobile
devices: it does not even establish the backup subflow up front (saving
energy and radio resources, relying on MPTCP's break-before-make), listens
to the ``timeout`` events, and when the reported RTO exceeds a threshold it
closes the under-performing primary subflow and creates a subflow over the
backup interface to continue the transfer — the behaviour of Figure 2a.
"""

from __future__ import annotations

from typing import Optional

from repro.core.controller import SubflowController
from repro.core.events import ConnClosedEvent, TimeoutEvent
from repro.core.library import PathManagerLibrary
from repro.net.addressing import IPAddress


class SmartBackupController(SubflowController):
    """Close the primary and move to the backup path when the RTO explodes."""

    name = "smart-backup"

    def __init__(
        self,
        library: PathManagerLibrary,
        backup_local_address: IPAddress | str,
        backup_remote_address: Optional[IPAddress | str] = None,
        backup_remote_port: int = 0,
        rto_threshold: float = 1.0,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(library, name=name)
        self._backup_local = IPAddress(backup_local_address)
        self._backup_remote = IPAddress(backup_remote_address) if backup_remote_address is not None else None
        self._backup_remote_port = backup_remote_port
        #: RTO value (seconds) above which the primary is abandoned.
        self.rto_threshold = rto_threshold
        self._switched: set[int] = set()
        self.switch_times: dict[int, float] = {}
        self.switches = 0

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------
    def on_timeout(self, event: TimeoutEvent) -> None:
        if event.token in self._switched:
            return
        if event.rto <= self.rto_threshold:
            return
        view = self.state.connection(event.token)
        if view.closed or not view.is_client:
            return
        flow = view.subflows.get(event.subflow_id)
        if flow is None or flow.closed:
            return
        if flow.four_tuple is not None and flow.four_tuple.src == self._backup_local:
            # The struggling subflow already runs on the backup path; there
            # is nothing better to switch to.
            return
        self._switched.add(event.token)
        self.switches += 1
        self.switch_times[event.token] = event.time
        # Break before make: close the under-performing primary, then open
        # the subflow over the backup interface to continue the transfer.
        self.library.remove_subflow(event.token, event.subflow_id)
        remote = self._backup_remote
        port = self._backup_remote_port
        if remote is None and view.four_tuple is not None:
            remote = view.four_tuple.dst
            port = view.four_tuple.dport
        self.library.create_subflow(
            event.token,
            self._backup_local,
            remote_address=remote,
            remote_port=port,
        )

    def on_conn_closed(self, event: ConnClosedEvent) -> None:
        self._switched.discard(event.token)
