"""A small Mininet-like topology builder.

The paper's experiments are Mininet scripts: create hosts, add links with
bandwidth/delay/loss, wire routing.  :class:`Topology` provides the same
vocabulary on top of :mod:`repro.net`, keeps track of every node and link by
name, and exposes the packet tracers the analysis code needs.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.net.addressing import IPAddress
from repro.net.host import Host
from repro.net.interface import Interface
from repro.net.link import Link
from repro.net.middlebox import NatFirewall, OptionStrippingMiddlebox
from repro.net.node import Node
from repro.net.router import EcmpGroup, Router
from repro.net.tracer import PacketTracer
from repro.sim.engine import Simulator


class Topology:
    """A named collection of hosts, routers, middleboxes and links."""

    def __init__(self, sim: Simulator, name: str = "topology") -> None:
        #: The simulation engine.
        self.sim = sim
        #: Topology label.
        self.name = name
        #: Hosts by name (do not mutate).
        self.hosts: dict[str, Host] = {}
        #: Routers by name (do not mutate).
        self.routers: dict[str, Router] = {}
        #: Middleboxes by name (do not mutate).
        self.middleboxes: dict[str, Node] = {}
        #: Links by name (do not mutate).
        self.links: dict[str, Link] = {}
        self._tracers: dict[str, PacketTracer] = {}

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def host(self, name: str) -> Host:
        """Look up a host by name."""
        return self.hosts[name]

    def router(self, name: str) -> Router:
        """Look up a router by name."""
        return self.routers[name]

    def link(self, name: str) -> Link:
        """Look up a link by name."""
        return self.links[name]

    def tracer(self, name: str) -> PacketTracer:
        """Look up a previously created tracer by name."""
        return self._tracers[name]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_host(self, name: str) -> Host:
        """Create a host."""
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(self.sim, name)
        self.hosts[name] = host
        return host

    def add_router(self, name: str) -> Router:
        """Create a router."""
        if name in self.routers:
            raise ValueError(f"duplicate router name {name!r}")
        router = Router(self.sim, name)
        self.routers[name] = router
        return router

    def add_middlebox(self, box: Node) -> Node:
        """Register an already constructed middlebox node with the topology."""
        if box.name in self.middleboxes:
            raise ValueError(f"duplicate middlebox name {box.name!r}")
        self.middleboxes[box.name] = box
        return box

    def add_nat(self, name: str, idle_timeout: float, send_rst: bool = False) -> NatFirewall:
        """Create a NAT/firewall middlebox."""
        return self.add_middlebox(
            NatFirewall(self.sim, name, idle_timeout=idle_timeout, send_rst=send_rst)
        )

    def add_option_stripper(
        self,
        name: str,
        strip_options: tuple[type, ...],
        strip_from: Optional[str] = None,
    ) -> OptionStrippingMiddlebox:
        """Create a middlebox that strips the given TCP option classes.

        ``strip_from`` restricts stripping to one ingress leg (``"inside"``
        or ``"outside"``); ``None`` strips both directions.
        """
        return self.add_middlebox(
            OptionStrippingMiddlebox(
                self.sim, name, strip_options=strip_options, strip_from=strip_from
            )
        )

    def add_link(
        self,
        name: str,
        side_a: Union[Interface, tuple[Node, str, Union[IPAddress, str]]],
        side_b: Union[Interface, tuple[Node, str, Union[IPAddress, str]]],
        rate_mbps: float = 1000.0,
        delay_ms: float = 0.1,
        loss_percent: float = 0.0,
        queue_packets: int = 100,
    ) -> Link:
        """Create a link between two interfaces.

        Each side is either an existing :class:`Interface` or a
        ``(node, iface_name, address)`` tuple, in which case the interface
        is created on the node first.
        """
        if name in self.links:
            raise ValueError(f"duplicate link name {name!r}")
        iface_a = self._resolve_interface(side_a)
        iface_b = self._resolve_interface(side_b)
        link = Link.mbps(
            self.sim,
            rate_mbps,
            delay_ms,
            loss_percent=loss_percent,
            queue_packets=queue_packets,
            name=name,
        ).connect(iface_a, iface_b)
        self.links[name] = link
        return link

    def add_tracer(self, name: str, link_names: Optional[list[str]] = None) -> PacketTracer:
        """Attach a packet tracer to the named links (all links by default)."""
        tracer = PacketTracer(name=name)
        targets = (
            [self.links[link_name] for link_name in link_names]
            if link_names is not None
            else list(self.links.values())
        )
        tracer.attach_all(targets)
        self._tracers[name] = tracer
        return tracer

    @staticmethod
    def _resolve_interface(
        side: Union[Interface, tuple[Node, str, Union[IPAddress, str]]],
    ) -> Interface:
        if isinstance(side, Interface):
            return side
        node, iface_name, address = side
        return node.add_interface(iface_name, address)
