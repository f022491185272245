"""Network interfaces.

An :class:`Interface` ties a node to one end of a link and owns exactly one
IP address.  Interfaces can be administratively brought up and down at
runtime — that is how the reproduction emulates a smartphone losing WiFi or
gaining cellular connectivity, and it is what feeds the ``new_local_addr`` /
``del_local_addr`` Netlink events of the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.addressing import IPAddress
from repro.net.packet import Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.net.link import Link
    from repro.net.node import Node


class Interface:
    """One attachment point of a node to a link."""

    def __init__(self, node: "Node", name: str, address: IPAddress) -> None:
        #: The node owning this interface.
        self.node = node
        #: Interface name, unique within its node (e.g. ``"wifi0"``).
        self.name = name
        #: The IPv4 address assigned to this interface.
        self.address = address if type(address) is IPAddress else IPAddress(address)
        #: The link this interface is attached to, if any.
        self.link: Optional["Link"] = None
        self._direction: object = None  # the link's transmit state for this end
        #: Node-qualified name, e.g. ``"client.wifi0"``.
        self.full_name = f"{node.name}.{name}"
        #: True when the interface is administratively up.
        self.is_up = True
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.dropped_down = 0

    # ------------------------------------------------------------------
    # link attachment
    # ------------------------------------------------------------------
    def attach(self, link: "Link", direction: object) -> None:
        """Record the link plugged in here and its transmit state for this end."""
        if self.link is not None and self.link is not link:
            raise RuntimeError(f"interface {self.full_name} is already attached to a link")
        self.link = link
        self._direction = direction

    # ------------------------------------------------------------------
    # administrative state
    # ------------------------------------------------------------------
    def set_up(self) -> None:
        """Bring the interface up and notify the owning node."""
        if self.is_up:
            return
        self.is_up = True
        self.node.on_interface_up(self)

    def set_down(self) -> None:
        """Bring the interface down and notify the owning node.

        Packets in flight on the link are still delivered (they already left
        the host); new transmissions and receptions are dropped.
        """
        if not self.is_up:
            return
        self.is_up = False
        self.node.on_interface_down(self)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def send(self, segment: Segment) -> bool:
        """Hand a segment to the attached link.

        Returns ``True`` when the segment entered the link (it may still be
        dropped later by the queue or by random loss), ``False`` when the
        interface is down or not attached.
        """
        if not self.is_up or self.link is None:
            self.dropped_down += 1
            return False
        self.tx_packets += 1
        self.tx_bytes += segment.size_bytes
        self.link.transmit(segment, self)
        return True

    def deliver(self, segment: Segment) -> None:
        """Called by the link when a segment arrives at this interface."""
        if not self.is_up:
            self.dropped_down += 1
            return
        self.rx_packets += 1
        self.rx_bytes += segment.size_bytes
        self.node.receive(segment, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.is_up else "down"
        return f"<Interface {self.full_name} {self.address} [{state}]>"
