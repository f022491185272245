"""Routers with flow-level ECMP load balancing.

Section 4.4 of the paper exploits networks that load-balance flows over
multiple equal-cost paths by hashing the four-tuple.  The :class:`Router`
here reproduces exactly that behaviour: an :class:`EcmpGroup` maps a flow
hash onto one of several outgoing interfaces, so every subflow (a distinct
four-tuple) is pinned to one path, and distinct subflows may collide on the
same path — the effect the ndiffports baseline suffers from.
"""

from __future__ import annotations

import zlib
from typing import Optional, Union

from repro.net.addressing import IPAddress
from repro.net.interface import Interface
from repro.net.node import Node
from repro.net.packet import Segment
from repro.sim.engine import Simulator


class EcmpGroup:
    """An ordered set of outgoing interfaces sharing equal-cost routes."""

    def __init__(self, iface_names: list[str]) -> None:
        if not iface_names:
            raise ValueError("an ECMP group needs at least one interface")
        self._iface_names = list(iface_names)

    @property
    def interfaces(self) -> list[str]:
        """The member interface names, in hashing order."""
        return list(self._iface_names)

    def select(self, segment: Segment) -> str:
        """Pick the member interface for this segment's flow."""
        key = segment.four_tuple.ecmp_key()
        digest = zlib.crc32(key)
        return self._iface_names[digest % len(self._iface_names)]


class Router(Node):
    """A static router with exact-match routes and ECMP groups."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._routes: dict[IPAddress, Union[str, EcmpGroup]] = {}
        self._default: Optional[Union[str, EcmpGroup]] = None
        self.forwarded = 0
        self.dropped_no_route = 0
        self.dropped_ttl = 0
        self.dropped_iface_down = 0

    # ------------------------------------------------------------------
    # routing configuration
    # ------------------------------------------------------------------
    def add_route(self, destination: IPAddress | str, via: Union[str, EcmpGroup]) -> None:
        """Route an exact destination address via an interface or ECMP group."""
        self._check_target(via)
        self._routes[IPAddress(destination)] = via

    def set_default_route(self, via: Union[str, EcmpGroup]) -> None:
        """Route every unmatched destination via an interface or ECMP group."""
        self._check_target(via)
        self._default = via

    def _check_target(self, via: Union[str, EcmpGroup]) -> None:
        names = [via] if isinstance(via, str) else via.interfaces
        for name in names:
            if name not in self.interfaces:
                raise KeyError(f"router {self.name} has no interface named {name!r}")

    def lookup(self, destination: IPAddress | str) -> Optional[Union[str, EcmpGroup]]:
        """Return the configured route target for a destination, if any."""
        target = self._routes.get(IPAddress(destination))
        return target if target is not None else self._default

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def receive(self, segment: Segment, iface: Interface) -> None:
        if self.owns_address(segment.dst):
            # Routers terminate nothing in this reproduction; a segment for
            # the router itself is silently dropped.
            return
        if segment.ttl <= 1:
            self.dropped_ttl += 1
            return
        target = self.lookup(segment.dst)
        if target is None:
            self.dropped_no_route += 1
            return
        out_name = target.select(segment) if isinstance(target, EcmpGroup) else target
        out_iface = self.interfaces[out_name]
        if not out_iface.is_up:
            self.dropped_iface_down += 1
            return
        segment.ttl -= 1
        self.forwarded += 1
        out_iface.send(segment)
