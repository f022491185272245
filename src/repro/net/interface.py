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
        self._node = node
        self._name = name
        self._address = IPAddress(address)
        self._link: Optional["Link"] = None
        self._direction: object = None  # the link's transmit state for this end
        self._full_name = f"{node.name}.{name}"
        self._up = True
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.dropped_down = 0

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def node(self) -> "Node":
        """The node owning this interface."""
        return self._node

    @property
    def name(self) -> str:
        """Interface name, unique within its node (e.g. ``"wifi0"``)."""
        return self._name

    @property
    def address(self) -> IPAddress:
        """The IPv4 address assigned to this interface."""
        return self._address

    @property
    def link(self) -> Optional["Link"]:
        """The link this interface is attached to, if any."""
        return self._link

    @property
    def is_up(self) -> bool:
        """True when the interface is administratively up."""
        return self._up

    @property
    def full_name(self) -> str:
        """Node-qualified name, e.g. ``"client.wifi0"``."""
        return self._full_name

    # ------------------------------------------------------------------
    # link attachment
    # ------------------------------------------------------------------
    def attach(self, link: "Link", direction: object) -> None:
        """Record the link plugged in here and its transmit state for this end."""
        if self._link is not None and self._link is not link:
            raise RuntimeError(f"interface {self.full_name} is already attached to a link")
        self._link = link
        self._direction = direction

    # ------------------------------------------------------------------
    # administrative state
    # ------------------------------------------------------------------
    def set_up(self) -> None:
        """Bring the interface up and notify the owning node."""
        if self._up:
            return
        self._up = True
        self._node.on_interface_up(self)

    def set_down(self) -> None:
        """Bring the interface down and notify the owning node.

        Packets in flight on the link are still delivered (they already left
        the host); new transmissions and receptions are dropped.
        """
        if not self._up:
            return
        self._up = False
        self._node.on_interface_down(self)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def send(self, segment: Segment) -> bool:
        """Hand a segment to the attached link.

        Returns ``True`` when the segment entered the link (it may still be
        dropped later by the queue or by random loss), ``False`` when the
        interface is down or not attached.
        """
        if not self._up or self._link is None:
            self.dropped_down += 1
            return False
        self.tx_packets += 1
        self.tx_bytes += segment.size_bytes
        self._link.transmit(segment, self)
        return True

    def deliver(self, segment: Segment) -> None:
        """Called by the link when a segment arrives at this interface."""
        if not self._up:
            self.dropped_down += 1
            return
        self.rx_packets += 1
        self.rx_bytes += segment.size_bytes
        self._node.receive(segment, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._up else "down"
        return f"<Interface {self.full_name} {self._address} [{state}]>"
