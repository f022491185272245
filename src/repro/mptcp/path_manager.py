"""The in-kernel path-manager interface and the two stock strategies.

The Linux MPTCP kernel exposes an internal interface that path-manager
modules implement; the paper's contribution is a third module that forwards
this interface over Netlink to userspace.  This module defines the
reproduction of that internal interface (:class:`PathManager`) and the two
in-kernel strategies the paper describes and benchmarks against:

* :class:`FullMeshPathManager` — one subflow from every local interface to
  every known remote address, created as soon as the connection (or the
  interface, or the address advertisement) appears;
* :class:`NdiffportsPathManager` — ``n`` subflows over the same pair of
  addresses but different source ports, aimed at ECMP-load-balanced
  datacenter networks.

Only the client side creates subflows (the paper: servers are often behind
NATs/firewalls that block incoming connection attempts).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.mptcp.subflow import Subflow, SubflowOrigin
from repro.net.addressing import IPAddress
from repro.net.interface import Interface
from repro.sim.latency import ConstantLatency, LatencyModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mptcp.connection import MptcpConnection
    from repro.mptcp.stack import MptcpStack


class PathManager:
    """Base class: the in-kernel path-manager hook interface.

    Every hook has a default no-op implementation so that strategies only
    override what they react to.  The same interface is implemented by
    :class:`repro.core.netlink_pm.NetlinkPathManager`, which forwards each
    hook to userspace instead of acting on it.
    """

    name = "base"

    def __init__(self) -> None:
        self.stack: Optional["MptcpStack"] = None

    def attach(self, stack: "MptcpStack") -> None:
        """Bind the path manager to the stack it serves (called by the stack)."""
        self.stack = stack

    # -- connection life cycle -------------------------------------------
    def on_connection_created(self, conn: "MptcpConnection") -> None:
        """A connection exists (SYN sent or received)."""

    def on_connection_established(self, conn: "MptcpConnection") -> None:
        """The initial subflow finished its three-way handshake."""

    def on_connection_closed(self, conn: "MptcpConnection") -> None:
        """The connection terminated."""

    # -- subflow life cycle -----------------------------------------------
    def on_subflow_established(self, conn: "MptcpConnection", flow: Subflow) -> None:
        """A subflow finished its handshake."""

    def on_subflow_closed(self, conn: "MptcpConnection", flow: Subflow, reason: int) -> None:
        """A subflow terminated; ``reason`` is an ``errno`` value (0 = clean)."""

    def on_rto_timeout(self, conn: "MptcpConnection", flow: Subflow, rto: float, consecutive: int) -> None:
        """A subflow's retransmission timer expired."""

    # -- addressing ---------------------------------------------------------
    def on_add_addr(self, conn: "MptcpConnection", address_id: int, address: IPAddress, port: int) -> None:
        """The peer advertised an additional address."""

    def on_rem_addr(self, conn: "MptcpConnection", address_id: int) -> None:
        """The peer withdrew an address."""

    def on_local_address_up(self, iface: Interface) -> None:
        """A local interface came up."""

    def on_local_address_down(self, iface: Interface) -> None:
        """A local interface went down."""


class PassivePathManager(PathManager):
    """Creates nothing: the connection keeps only its initial subflow.

    This is the configuration the paper's userspace controllers run with —
    all subflow decisions are taken in userspace, the kernel stays passive.
    """

    name = "passive"


class FullMeshPathManager(PathManager):
    """The in-kernel ``full-mesh`` strategy."""

    name = "fullmesh"

    # -- hooks ---------------------------------------------------------------
    def on_connection_established(self, conn: "MptcpConnection") -> None:
        if conn.is_client:
            self._schedule(lambda: self._build_mesh(conn))

    def on_add_addr(self, conn: "MptcpConnection", address_id: int, address: IPAddress, port: int) -> None:
        if conn.is_client:
            self._schedule(lambda: self._build_mesh(conn))

    def on_local_address_up(self, iface: Interface) -> None:
        if self.stack is None:
            return
        for conn in list(self.stack.connections):
            if conn.is_client and conn.established and not conn.closed:
                self._schedule(lambda conn=conn: self._build_mesh(conn))

    def on_local_address_down(self, iface: Interface) -> None:
        if self.stack is None:
            return
        for conn in list(self.stack.connections):
            for flow in conn.active_subflows:
                if flow.socket.local_address == iface.address:
                    conn.remove_subflow(flow, reset=True)

    # -- helpers ---------------------------------------------------------------
    def _schedule(self, action) -> None:
        if self.stack is None:
            return
        # The in-kernel strategy reacts after 2 us of processing.
        self.stack.sim.schedule(2e-6, action)

    def _build_mesh(self, conn: "MptcpConnection") -> None:
        if self.stack is None or conn.closed or not conn.established:
            return
        remote_targets = self._remote_targets(conn)
        for local_address in self.stack.local_addresses():
            for remote_address, remote_port in remote_targets:
                if self._have_subflow(conn, local_address, remote_address):
                    continue
                conn.create_subflow(
                    local_address,
                    remote_address=remote_address,
                    remote_port=remote_port,
                    origin=SubflowOrigin.KERNEL_PM,
                )

    def _remote_targets(self, conn: "MptcpConnection") -> list[tuple[IPAddress, int]]:
        targets = [(conn.remote_address, conn.remote_port)]
        for address, port in conn.remote_addresses.values():
            if all(address != existing for existing, _ in targets):
                targets.append((address, port))
        return targets

    @staticmethod
    def _have_subflow(conn: "MptcpConnection", local_address: IPAddress, remote_address: IPAddress) -> bool:
        for flow in conn.subflows:
            if flow.is_closed:
                continue
            sock = flow.socket
            if sock.local_address == local_address and sock.remote_address == remote_address:
                return True
        return False


class NdiffportsPathManager(PathManager):
    """The in-kernel ``ndiffports`` strategy: ``n`` subflows, one address pair."""

    name = "ndiffports"

    def __init__(self, subflow_count: int = 2, processing_latency: Optional[LatencyModel] = None) -> None:
        super().__init__()
        if subflow_count < 1:
            raise ValueError(f"subflow_count must be at least 1, got {subflow_count!r}")
        #: Total number of subflows targeted per connection (including the initial one).
        self.subflow_count = subflow_count
        self._latency = processing_latency if processing_latency is not None else ConstantLatency(2e-6)

    def on_connection_established(self, conn: "MptcpConnection") -> None:
        if not conn.is_client or self.stack is None:
            return
        delay = self._latency.sample(self.stack.sim.random.substream("pm:ndiffports"))
        self.stack.sim.schedule(delay, self._open_subflows, conn)

    def _open_subflows(self, conn: "MptcpConnection") -> None:
        if self.stack is None or conn.closed or not conn.established:
            return
        initial = conn.initial_subflow
        if initial is None:
            return
        local_address = initial.socket.local_address
        missing = self.subflow_count - len(conn.active_subflows)
        for _ in range(max(0, missing)):
            conn.create_subflow(local_address, origin=SubflowOrigin.KERNEL_PM)
