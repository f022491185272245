"""§4.1 — Smarter long-lived connections: the userspace full-mesh controller.

The paper's first controller re-implements the in-kernel ``full-mesh``
strategy in about 800 lines of userspace C, then goes further: it listens
to ``sub_closed`` events, analyses the error condition and re-establishes
the failed subflow after a back-off that depends on the failure cause (a
short timer after a RST — the middlebox simply lost its state — and a
longer one after network-unreachable style failures).  That keeps
long-lived connections alive through NAT/firewall state expiry without
blindly sending keep-alives on every path.
"""

from __future__ import annotations

import errno

from repro.core.controller import ConnectionView, SubflowController
from repro.core.events import (
    AddAddrEvent,
    ConnClosedEvent,
    ConnEstablishedEvent,
    DelLocalAddrEvent,
    NewLocalAddrEvent,
    SubflowClosedEvent,
)
from repro.core.library import PathManagerLibrary
from repro.net.addressing import IPAddress


class UserspaceFullMeshController(SubflowController):
    """Full mesh in userspace, plus failure-specific re-establishment."""

    name = "userspace-fullmesh"

    #: Back-off (seconds) applied before re-creating a failed subflow,
    #: keyed by the errno reported in the ``sub_closed`` event.
    BACKOFFS = {
        errno.ECONNRESET: 0.5,
        errno.ETIMEDOUT: 2.0,
        errno.ENETUNREACH: 10.0,
        errno.EHOSTUNREACH: 10.0,
        errno.ECONNREFUSED: 5.0,
    }
    DEFAULT_BACKOFF = 2.0

    def __init__(self, library: PathManagerLibrary, reestablish: bool = True) -> None:
        super().__init__(library)
        self._reestablish = reestablish
        # (token, local address, remote address) -> consecutive failures
        self._failures: dict[tuple[int, IPAddress, IPAddress], int] = {}
        # Per token, the (local, remote) pairs for which a create command is
        # in flight: the sub_estab event has not arrived yet, so the view
        # alone cannot prevent duplicates when estab and add_addr events
        # arrive back to back.  Keyed by token so that a closing connection
        # drops its own pairs without touching anyone else's.
        self._requested: dict[int, set[tuple[IPAddress, IPAddress]]] = {}
        self.subflows_requested = 0
        self.reestablishments = 0

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------
    def on_conn_established(self, event: ConnEstablishedEvent) -> None:
        view = self.state.connection(event.token)
        if view.is_client:
            self._build_mesh(view)

    def on_add_addr(self, event: AddAddrEvent) -> None:
        view = self.state.connection(event.token)
        if view.is_client:
            self._build_mesh(view)

    def on_local_addr_up(self, event: NewLocalAddrEvent) -> None:
        for view in self.state.connections.values():
            if view.is_client and view.established and not view.closed:
                self._build_mesh(view)

    def on_local_addr_down(self, event: DelLocalAddrEvent) -> None:
        # Remove the subflows that were using the address that disappeared,
        # exactly like the in-kernel full-mesh strategy does.
        for view in self.state.connections.values():
            if view.closed:
                continue
            for flow in view.active_subflows:
                if flow.four_tuple is not None and flow.four_tuple.src == event.address:
                    self.library.remove_subflow(view.token, flow.subflow_id)

    def on_subflow_closed(self, event: SubflowClosedEvent) -> None:
        if event.four_tuple is not None:
            # Allow the pair to be created again after a failure.
            requested = self._requested.get(event.token)
            if requested is not None:
                requested.discard((event.four_tuple.src, event.four_tuple.dst))
        if not self._reestablish:
            return
        view = self.state.connection(event.token)
        if view.closed or not view.is_client or event.four_tuple is None:
            return
        local = event.four_tuple.src
        remote = event.four_tuple.dst
        if not self._is_local_address_up(local):
            # The subflow died because its interface went away; the
            # new_local_addr event will rebuild the mesh when it returns.
            return
        key = (event.token, local, remote)
        attempts = self._failures.get(key, 0) + 1
        self._failures[key] = attempts
        if attempts > 8:  # give the pair up after eight consecutive failures
            return
        backoff = self.BACKOFFS.get(event.reason, self.DEFAULT_BACKOFF)
        self.sim.schedule(backoff, self._reestablish_subflow, event.token, local, remote, event.four_tuple.dport)

    def on_conn_closed(self, event: ConnClosedEvent) -> None:
        stale = [key for key in self._failures if key[0] == event.token]
        for key in stale:
            del self._failures[key]
        self._requested.pop(event.token, None)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def _build_mesh(self, view: ConnectionView) -> None:
        remote_targets = self._remote_targets(view)
        requested = self._requested.setdefault(view.token, set())
        for local_address in self.local_address_list():
            for remote_address, remote_port in remote_targets:
                pair = (local_address, remote_address)
                if pair in requested or self._have_subflow(view, local_address, remote_address):
                    continue
                requested.add(pair)
                self.subflows_requested += 1
                self.library.create_subflow(
                    view.token,
                    local_address,
                    remote_address=remote_address,
                    remote_port=remote_port,
                )

    def _reestablish_subflow(self, token: int, local: IPAddress, remote: IPAddress, port: int) -> None:
        view = self.state.connections.get(token)
        if view is None or view.closed:
            return
        if self._have_subflow(view, local, remote):
            self._failures.pop((token, local, remote), None)
            return
        if not self._is_local_address_up(local):
            return
        self.reestablishments += 1
        self.library.create_subflow(
            token, local, remote_address=remote, remote_port=port,
            on_reply=lambda reply: self._on_reestablish_reply(token, local, remote, reply),
        )

    def _on_reestablish_reply(self, token: int, local: IPAddress, remote: IPAddress, reply) -> None:
        if reply.ok:
            self._failures.pop((token, local, remote), None)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _remote_targets(self, view: ConnectionView) -> list[tuple[IPAddress, int]]:
        targets: list[tuple[IPAddress, int]] = []
        if view.four_tuple is not None:
            targets.append((view.four_tuple.dst, view.four_tuple.dport))
        for address, port in view.remote_addresses.values():
            if all(address != existing for existing, _ in targets):
                targets.append((address, port))
        return targets

    @staticmethod
    def _have_subflow(view: ConnectionView, local: IPAddress, remote: IPAddress) -> bool:
        for flow in view.subflows.values():
            if flow.closed or flow.four_tuple is None:
                continue
            if flow.four_tuple.src == local and flow.four_tuple.dst == remote:
                return True
        return False

    def _is_local_address_up(self, address: IPAddress) -> bool:
        return any(known == address for known in self.state.local_addresses.values())
