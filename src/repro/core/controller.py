"""Subflow-controller base class and the event-derived connection views.

A subflow controller is an ordinary userspace program: it registers
callbacks with the :class:`~repro.core.library.PathManagerLibrary`, keeps
whatever state it needs, and reacts by sending commands.  The base class
provided here does the bookkeeping every controller in Section 4 of the
paper needs — a view of the connections and subflows reconstructed *purely
from events* (the controller never touches kernel data structures) — and
exposes overridable ``on_*`` hooks plus thin command helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.events import ConnClosedEvent, Event
from repro.core.library import PathManagerLibrary
from repro.net.addressing import FourTuple, IPAddress


@dataclass
class SubflowView:
    """What the controller knows about one subflow (from events only)."""

    subflow_id: int
    four_tuple: Optional[FourTuple] = None
    backup: bool = False
    established: bool = False
    closed: bool = False
    close_reason: Optional[int] = None
    established_at: Optional[float] = None
    closed_at: Optional[float] = None
    last_timeout_rto: Optional[float] = None
    timeout_count: int = 0


@dataclass
class ConnectionView:
    """What the controller knows about one connection (from events only)."""

    token: int
    four_tuple: Optional[FourTuple] = None
    is_client: bool = True
    created_at: Optional[float] = None
    established: bool = False
    established_at: Optional[float] = None
    closed: bool = False
    subflows: dict[int, SubflowView] = field(default_factory=dict)
    remote_addresses: dict[int, tuple[IPAddress, int]] = field(default_factory=dict)

    @property
    def active_subflows(self) -> list[SubflowView]:
        """Subflows believed to be established and not closed."""
        return [flow for flow in self.subflows.values() if flow.established and not flow.closed]

    def subflow(self, subflow_id: int) -> SubflowView:
        """Get (or lazily create) the view of a subflow."""
        view = self.subflows.get(subflow_id)
        if view is None:
            view = SubflowView(subflow_id)
            self.subflows[subflow_id] = view
        return view


class ControllerState:
    """Event-driven mirror of the kernel's connection/subflow state.

    Each event is folded in by the method its class names as ``hook`` —
    the name it also reaches on :class:`SubflowController`.

    A connection's view appears with the first event that names its token
    (normally ``created``); :class:`SubflowController` drops it once the
    ``closed`` event has been handled, so :attr:`connections` holds only
    connections that are open.
    :attr:`subflows_closed` counts the subflow views that turned closed
    over the whole run, those of dropped views included.
    """

    def __init__(self) -> None:
        self.connections: dict[int, ConnectionView] = {}
        self.local_addresses: dict[str, IPAddress] = {}
        self.subflows_closed = 0

    def prime_local_addresses(self, addresses: Iterable[tuple[str, IPAddress]]) -> None:
        """Seed the initially available local addresses.

        Only *changes* generate ``new_local_addr``/``del_local_addr`` events,
        so a controller learns the initial set out of band — in the paper,
        from a netdevice dump at startup.
        """
        for iface_name, address in addresses:
            self.local_addresses[iface_name] = IPAddress(address)

    def connection(self, token: int) -> ConnectionView:
        """Get (or lazily create) the view of a connection."""
        view = self.connections.get(token)
        if view is None:
            view = ConnectionView(token)
            self.connections[token] = view
        return view

    def update(self, event: Event) -> None:
        """Fold one event into the state."""
        getattr(self, event.hook)(event)

    def on_conn_created(self, event: Event) -> None:
        view = self.connection(event.token)
        view.four_tuple = event.four_tuple
        view.is_client = event.is_client
        view.created_at = event.time
        view.subflow(event.initial_subflow_id).four_tuple = event.four_tuple

    def on_conn_established(self, event: Event) -> None:
        view = self.connection(event.token)
        view.established = True
        view.established_at = event.time
        view.four_tuple = event.four_tuple

    def on_conn_closed(self, event: Event) -> None:
        self.connection(event.token).closed = True

    def on_subflow_established(self, event: Event) -> None:
        flow = self.connection(event.token).subflow(event.subflow_id)
        flow.four_tuple = event.four_tuple
        flow.backup = event.backup
        flow.established = True
        flow.established_at = event.time

    def on_subflow_closed(self, event: Event) -> None:
        flow = self.connection(event.token).subflow(event.subflow_id)
        flow.four_tuple = event.four_tuple
        if not flow.closed:
            self.subflows_closed += 1
        flow.closed = True
        flow.close_reason = event.reason
        flow.closed_at = event.time

    def on_timeout(self, event: Event) -> None:
        flow = self.connection(event.token).subflow(event.subflow_id)
        flow.last_timeout_rto = event.rto
        flow.timeout_count += 1

    def on_add_addr(self, event: Event) -> None:
        addresses = self.connection(event.token).remote_addresses
        addresses[event.address_id] = (event.address, event.port)

    def on_rem_addr(self, event: Event) -> None:
        self.connection(event.token).remote_addresses.pop(event.address_id, None)

    def on_local_addr_up(self, event: Event) -> None:
        self.local_addresses[event.iface_name] = event.address

    def on_local_addr_down(self, event: Event) -> None:
        self.local_addresses.pop(event.iface_name, None)


class SubflowController:
    """Base class for userspace subflow controllers.

    Subclasses override the ``on_*`` hooks they care about; the base class
    keeps :attr:`state` up to date before any hook runs, so hooks can reason
    about the current picture rather than raw events.  A connection's view
    is in ``state.connections`` from its first event until its
    ``on_conn_closed`` hook has returned; the hook still sees it, and a
    timer that fires later finds no view (``state.connections.get(token)``
    is ``None``).  This relies on ``closed`` being the last event the
    kernel sends for a token.
    """

    name = "controller"

    def __init__(self, library: PathManagerLibrary) -> None:
        self.library = library
        self.state = ControllerState()
        self._started = False
        self.events_seen = 0

    # ------------------------------------------------------------------
    # life cycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Register with the library and begin receiving events."""
        if self._started:
            return
        self._started = True
        self.library.register_all(self._handle_event)

    @property
    def sim(self):
        """The simulation engine (used for controller-side timers)."""
        return self.library.channel.sim

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _handle_event(self, event: Event) -> None:
        self.events_seen += 1
        self.state.update(event)
        getattr(self, event.hook)(event)
        if isinstance(event, ConnClosedEvent):
            self.state.connections.pop(event.token, None)

    # ------------------------------------------------------------------
    # hooks (subclasses override what they need)
    # ------------------------------------------------------------------
    def on_conn_created(self, event: Event) -> None:
        """``created`` event (``ConnCreatedEvent``)."""

    def on_conn_established(self, event: Event) -> None:
        """``estab`` event (``ConnEstablishedEvent``)."""

    def on_conn_closed(self, event: Event) -> None:
        """``closed`` event (``ConnClosedEvent``)."""

    def on_subflow_established(self, event: Event) -> None:
        """``sub_estab`` event (``SubflowEstablishedEvent``)."""

    def on_subflow_closed(self, event: Event) -> None:
        """``sub_closed`` event (``SubflowClosedEvent``)."""

    def on_timeout(self, event: Event) -> None:
        """``timeout`` event (``TimeoutEvent``)."""

    def on_add_addr(self, event: Event) -> None:
        """``add_addr`` event (``AddAddrEvent``)."""

    def on_rem_addr(self, event: Event) -> None:
        """``rem_addr`` event (``RemAddrEvent``)."""

    def on_local_addr_up(self, event: Event) -> None:
        """``new_local_addr`` event (``NewLocalAddrEvent``)."""

    def on_local_addr_down(self, event: Event) -> None:
        """``del_local_addr`` event (``DelLocalAddrEvent``)."""

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def local_address_list(self) -> list[IPAddress]:
        """The local addresses the controller currently believes exist."""
        return list(self.state.local_addresses.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} events={self.events_seen}>"
