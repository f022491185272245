"""Stateful middleboxes (NAT / firewall).

Section 4.1 of the paper motivates the "smarter long-lived connections"
controller with middleboxes that silently discard the state of idle
connections after a few hundred seconds, far below the two-hours-and-four-
minutes the IETF recommends.  The :class:`NatFirewall` node reproduces that
behaviour: it sits in the middle of a path, creates per-flow state when it
sees a SYN from the inside, refreshes the state on every packet, and drops
(or resets) packets of flows whose state expired.

Address translation itself is not modelled — the observable effect on the
end hosts (an idle subflow silently dying, new subflows working fine) is
identical, and that is all the controller reacts to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.addressing import FourTuple
from repro.net.interface import Interface
from repro.net.node import Node
from repro.net.packet import Segment, reset_for
from repro.sim.engine import Simulator


@dataclass
class FlowState:
    """Per-flow state kept by the middlebox."""

    flow: FourTuple
    created_at: float
    last_seen: float
    packets: int = 0


class TwoLeggedMiddlebox(Node):
    """Base for bump-in-the-wire middleboxes with an inside and an outside leg.

    Owns the leg naming, interface creation and the inside↔outside
    forwarding step shared by every concrete middlebox.
    """

    INSIDE = "inside"
    OUTSIDE = "outside"

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self.forwarded = 0

    def attach(self, inside_address: str, outside_address: str) -> tuple[Interface, Interface]:
        """Create the two legs of the middlebox and return them (inside, outside)."""
        inside = self.add_interface(self.INSIDE, inside_address)
        outside = self.add_interface(self.OUTSIDE, outside_address)
        return inside, outside

    def _forward(self, segment: Segment, in_iface: Interface) -> None:
        out_name = self.OUTSIDE if in_iface.name == self.INSIDE else self.INSIDE
        out_iface = self.interfaces[out_name]
        if not out_iface.is_up:
            return
        self.forwarded += 1
        out_iface.send(segment)


class NatFirewall(TwoLeggedMiddlebox):
    """A two-legged stateful firewall with an idle-state timeout.

    Parameters
    ----------
    idle_timeout:
        Seconds of inactivity after which a flow's state is discarded.
    send_rst:
        When ``True``, a packet arriving for an expired/unknown flow makes
        the middlebox send the RFC 793 reset (:func:`repro.net.packet.reset_for`)
        back to the packet's sender (some deployed firewalls do this); a RST
        is never answered.  When ``False`` the packet is silently dropped
        (the common NAT behaviour the paper describes).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        idle_timeout: float = 180.0,
        send_rst: bool = False,
    ) -> None:
        super().__init__(sim, name)
        if idle_timeout <= 0:
            raise ValueError(f"idle timeout must be positive, got {idle_timeout!r}")
        #: Idle interval after which flow state is removed.
        self.idle_timeout = float(idle_timeout)
        self._send_rst = send_rst
        self._flows: dict[FourTuple, FlowState] = {}
        self.dropped_no_state = 0
        self.dropped_outside_syn = 0
        self.resets_sent = 0
        self.expired_flows = 0

    # ------------------------------------------------------------------
    # configuration helpers
    # ------------------------------------------------------------------
    def active_flows(self) -> list[FourTuple]:
        """Flows whose state has not expired at the current simulated time."""
        self._expire_stale()
        return list(self._flows)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def receive(self, segment: Segment, iface: Interface) -> None:
        self._expire_stale()
        flow = self._canonical(segment.four_tuple)
        state = self._flows.get(flow)
        from_inside = iface.name == self.INSIDE

        if state is None:
            if segment.is_syn and not segment.is_ack:
                if from_inside:
                    state = FlowState(flow, self.sim.now, self.sim.now)
                    self._flows[flow] = state
                else:
                    # Connection attempts from the outside are blocked, the
                    # reason the paper gives for servers never creating
                    # subflows themselves.
                    self.dropped_outside_syn += 1
                    return
            else:
                self.dropped_no_state += 1
                reset = reset_for(segment) if self._send_rst else None
                if reset is not None:
                    self.resets_sent += 1
                    iface.send(reset)
                return

        state.last_seen = self.sim.now
        state.packets += 1
        if segment.is_rst or segment.is_fin:
            # Keep the state for the closing exchange but let it expire via
            # the idle timer; real middleboxes differ wildly here and nothing
            # in the experiments depends on the exact teardown behaviour.
            pass
        self._forward(segment, iface)

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------
    def _canonical(self, flow: FourTuple) -> FourTuple:
        """State is direction-independent: store the lexicographically smaller form."""
        reverse = flow.reversed()
        forward_key = (flow.src.value, flow.sport, flow.dst.value, flow.dport)
        backward_key = (reverse.src.value, reverse.sport, reverse.dst.value, reverse.dport)
        return flow if forward_key <= backward_key else reverse

    def _expire_stale(self) -> None:
        now = self.sim.now
        expired = [flow for flow, state in self._flows.items() if now - state.last_seen > self.idle_timeout]
        for flow in expired:
            del self._flows[flow]
            self.expired_flows += 1


class OptionStrippingMiddlebox(TwoLeggedMiddlebox):
    """A transparent middlebox that removes selected TCP options in transit.

    Section 3 of the paper discusses middleboxes that interfere with MPTCP
    signalling; the classic offender strips ``ADD_ADDR`` (some firewalls drop
    any option they do not recognise), which silently disables the path
    manager's address advertisement on that path while leaving the
    connection itself intact.  The box forwards every packet between its two
    legs unchanged apart from the configured option classes.

    ``strip_from`` optionally restricts stripping to segments arriving on
    one leg (``"inside"`` or ``"outside"``): some deployed boxes only
    sanitise one direction, which is what turns an MP_CAPABLE stripper into
    a SYN/ACK-only stripper (the asymmetric downgrade case of §3).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        strip_options: tuple[type, ...] = (),
        strip_from: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name)
        if strip_from is not None and strip_from not in (self.INSIDE, self.OUTSIDE):
            raise ValueError(
                f"strip_from must be {self.INSIDE!r} or {self.OUTSIDE!r}, got {strip_from!r}"
            )
        #: The option classes removed from forwarded segments.
        self.strip_options = tuple(strip_options)
        #: The only leg whose ingress is stripped (``None`` = both).
        self.strip_from = strip_from
        self.options_stripped = 0

    def receive(self, segment: Segment, iface: Interface) -> None:
        directional_pass = self.strip_from is not None and iface.name != self.strip_from
        if self.strip_options and segment.options and not directional_pass:
            kept = tuple(
                option for option in segment.options if not isinstance(option, self.strip_options)
            )
            if len(kept) != len(segment.options):
                self.options_stripped += len(segment.options) - len(kept)
                segment = segment.with_options(kept)
        self._forward(segment, iface)
