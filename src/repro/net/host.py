"""End hosts.

A :class:`Host` owns interfaces, a routing table and (once installed) a
transport stack — in this reproduction that is almost always an
:class:`repro.mptcp.stack.MptcpStack`.  The host implements the policy
routing a multihomed Linux box needs for MPTCP: an outgoing segment whose
source address belongs to one of the host's interfaces leaves through that
interface, so each subflow stays pinned to its path.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.net.addressing import IPAddress
from repro.net.interface import Interface
from repro.net.node import Node
from repro.net.packet import Segment
from repro.sim.engine import Simulator


class TransportStack(Protocol):
    """The interface a host expects from its transport stack."""

    def on_segment(self, segment: Segment, iface: Interface) -> None:
        """Handle a segment addressed to this host."""

    def on_local_address_up(self, iface: Interface) -> None:
        """React to a local interface coming up."""

    def on_local_address_down(self, iface: Interface) -> None:
        """React to a local interface going down."""


class Host(Node):
    """A multihomed end host."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._stack: Optional[TransportStack] = None
        self._static_routes: dict[IPAddress, str] = {}
        self._default_interface: Optional[str] = None
        # (dst, src) -> Interface memo for the send() hot path.  Any event
        # that can change a routing decision (interface up/down, new
        # interface, new route, new default) clears it wholesale.
        self._route_cache: dict[tuple[int, int], Interface] = {}
        self.dropped_no_route = 0
        self.dropped_not_local = 0

    # ------------------------------------------------------------------
    # stack attachment
    # ------------------------------------------------------------------
    @property
    def stack(self) -> Optional[TransportStack]:
        """The installed transport stack, if any."""
        return self._stack

    def install_stack(self, stack: TransportStack) -> None:
        """Install the transport stack that will consume received segments."""
        self._stack = stack

    def add_interface(self, name: str, address: IPAddress | str) -> Interface:
        iface = super().add_interface(name, address)
        # A new interface can change source-address routing decisions.
        self._route_cache.clear()
        return iface

    # ------------------------------------------------------------------
    # routing configuration
    # ------------------------------------------------------------------
    def add_route(self, destination: IPAddress | str, iface_name: str) -> None:
        """Route traffic for an exact destination address via an interface."""
        if iface_name not in self.interfaces:
            raise KeyError(f"host {self.name} has no interface named {iface_name!r}")
        self._static_routes[IPAddress(destination)] = iface_name
        self._route_cache.clear()

    def set_default_interface(self, iface_name: str) -> None:
        """Interface used when neither policy routing nor a static route matches."""
        if iface_name not in self.interfaces:
            raise KeyError(f"host {self.name} has no interface named {iface_name!r}")
        self._default_interface = iface_name
        self._route_cache.clear()

    def route(self, destination: IPAddress | str, source: Optional[IPAddress | str] = None) -> Optional[Interface]:
        """Select the outgoing interface for a destination/source pair.

        Resolution order (mirrors Linux policy routing as configured for
        MPTCP): source-address rule first, then an exact host route, then the
        default interface, then the first up interface.
        """
        if source is not None:
            bound = self.interface_for_address(source)
            if bound is not None and bound.is_up:
                return bound
        if type(destination) is not IPAddress:
            destination = IPAddress(destination)
        route_iface = self._static_routes.get(destination)
        if route_iface is not None:
            iface = self.interfaces[route_iface]
            if iface.is_up:
                return iface
        if self._default_interface is not None:
            iface = self.interfaces[self._default_interface]
            if iface.is_up:
                return iface
        for iface in self.interfaces.values():
            if iface.is_up:
                return iface
        return None

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def send(self, segment: Segment) -> bool:
        """Send a segment produced by the local stack.

        Returns ``True`` when the segment was handed to a link.
        """
        key = (segment.dst._value, segment.src._value)
        iface = self._route_cache.get(key)
        if iface is None:
            iface = self.route(segment.dst, segment.src)
            if iface is None:
                self.dropped_no_route += 1
                return False
            self._route_cache[key] = iface
        return iface.send(segment)

    def receive(self, segment: Segment, iface: Interface) -> None:
        """Deliver a received segment to the local stack.

        Hosts never forward: segments for addresses the host does not own
        are counted and dropped.
        """
        if segment.dst._value not in self._address_index:
            self.dropped_not_local += 1
            return
        if self._stack is not None:
            self._stack.on_segment(segment, iface)

    # ------------------------------------------------------------------
    # interface state hooks
    # ------------------------------------------------------------------
    def on_interface_up(self, iface: Interface) -> None:
        self._route_cache.clear()
        if self._stack is not None:
            self._stack.on_local_address_up(iface)

    def on_interface_down(self, iface: Interface) -> None:
        self._route_cache.clear()
        if self._stack is not None:
            self._stack.on_local_address_down(iface)
