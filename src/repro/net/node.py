"""Base class for every device attached to the emulated network."""

from __future__ import annotations

from typing import Optional

from repro.net.addressing import IPAddress
from repro.net.interface import Interface
from repro.net.packet import Segment
from repro.sim.engine import Simulator


class Node:
    """A named device with a set of interfaces.

    Subclasses decide what happens to received segments: hosts hand them to
    their transport stack, routers forward them, middleboxes filter them.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        #: The simulation engine this node is scheduled on.
        self.sim = sim
        #: Node name, unique within a topology.
        self.name = name
        #: Mapping of interface name to interface (do not mutate).
        self.interfaces: dict[str, Interface] = {}
        # Address (as a 32-bit int) -> owning interface, first wins; keeps
        # the per-segment ownership/routing lookups O(1).
        self._address_index: dict[int, Interface] = {}

    # ------------------------------------------------------------------
    # identity / topology
    # ------------------------------------------------------------------
    def add_interface(self, name: str, address: IPAddress | str) -> Interface:
        """Create a new interface with the given name and address."""
        if name in self.interfaces:
            raise ValueError(f"node {self.name} already has an interface named {name!r}")
        iface = Interface(self, name, address if type(address) is IPAddress else IPAddress(address))
        self.interfaces[name] = iface
        self._address_index.setdefault(iface.address._value, iface)
        return iface

    def interface(self, name: str) -> Interface:
        """Look up an interface by name."""
        try:
            return self.interfaces[name]
        except KeyError:
            raise KeyError(f"node {self.name} has no interface named {name!r}") from None

    def interface_for_address(self, address: IPAddress | str) -> Optional[Interface]:
        """Return the interface owning ``address``, or ``None``."""
        if type(address) is not IPAddress:
            address = IPAddress(address)
        return self._address_index.get(address._value)

    def addresses(self, only_up: bool = True) -> list[IPAddress]:
        """All addresses assigned to this node (by default only up interfaces)."""
        return [
            iface.address
            for iface in self.interfaces.values()
            if iface.is_up or not only_up
        ]

    def owns_address(self, address: IPAddress | str) -> bool:
        """True when any interface (up or down) owns ``address``."""
        if type(address) is not IPAddress:
            address = IPAddress(address)
        return address._value in self._address_index

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------
    def receive(self, segment: Segment, iface: Interface) -> None:
        """Handle a segment delivered to ``iface``.  Subclasses must override."""
        raise NotImplementedError

    def on_interface_up(self, iface: Interface) -> None:
        """Called when one of this node's interfaces comes up."""

    def on_interface_down(self, iface: Interface) -> None:
        """Called when one of this node's interfaces goes down."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} ifaces={list(self.interfaces)}>"
