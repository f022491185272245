"""Events exposed by the Netlink path manager.

The event vocabulary is exactly the one Section 3 of the paper lists.  Each
event is a frozen dataclass carrying the information a subflow controller
needs to take decisions without ever touching kernel state directly:
connections are identified by their MPTCP token, subflows by a
connection-local identifier plus their four-tuple, failures by an ``errno``
value.

Each class is the one declaration of its message.  Besides its fields it
states ``event_type`` (its number on the wire), ``hook`` (the
:class:`~repro.core.controller.SubflowController` method it reaches) and
``wire`` (its payload as ``field:kind`` entries in wire order; the kinds are
listed in :mod:`repro.core.codec`, which compiles the string).  Defining
the class registers it in :data:`EVENT_CLASSES`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

from repro.net.addressing import FourTuple, IPAddress


class EventType(enum.IntEnum):
    """Numeric identifiers used on the wire (and for subscriptions)."""

    CONN_CREATED = 1
    CONN_ESTABLISHED = 2
    CONN_CLOSED = 3
    SUB_ESTABLISHED = 4
    SUB_CLOSED = 5
    TIMEOUT = 6
    ADD_ADDR = 7
    REM_ADDR = 8
    NEW_LOCAL_ADDR = 9
    DEL_LOCAL_ADDR = 10


#: Every concrete event class by its numeric type, filled as the classes
#: below are defined; the codec compiles one layout per entry.
EVENT_CLASSES: dict[EventType, type[Event]] = {}


@dataclass(frozen=True)
class Event:
    """Base class for all path-manager events."""

    event_type: ClassVar[EventType]
    hook: ClassVar[str]
    wire: ClassVar[str]

    time: float
    """Simulated time at which the kernel emitted the event."""

    def __init_subclass__(cls) -> None:
        EVENT_CLASSES[cls.event_type] = cls


@dataclass(frozen=True)
class ConnCreatedEvent(Event):
    """``created``: a new MPTCP connection exists (SYN sent or received)."""

    event_type = EventType.CONN_CREATED
    hook = "on_conn_created"
    wire = "token:I time:d four_tuple:tuple initial_subflow_id:H is_client:?"

    token: int
    four_tuple: FourTuple
    initial_subflow_id: int
    is_client: bool


@dataclass(frozen=True)
class ConnEstablishedEvent(Event):
    """``estab``: the initial subflow's three-way handshake succeeded."""

    event_type = EventType.CONN_ESTABLISHED
    hook = "on_conn_established"
    wire = "token:I time:d four_tuple:tuple"

    token: int
    four_tuple: FourTuple


@dataclass(frozen=True)
class ConnClosedEvent(Event):
    """``closed``: the MPTCP connection terminated."""

    event_type = EventType.CONN_CLOSED
    hook = "on_conn_closed"
    wire = "token:I time:d"

    token: int


@dataclass(frozen=True)
class SubflowEstablishedEvent(Event):
    """``sub_estab``: a subflow finished its handshake."""

    event_type = EventType.SUB_ESTABLISHED
    hook = "on_subflow_established"
    wire = "token:I time:d subflow_id:H four_tuple:tuple backup:?"

    token: int
    subflow_id: int
    four_tuple: FourTuple
    backup: bool


@dataclass(frozen=True)
class SubflowClosedEvent(Event):
    """``sub_closed``: a subflow terminated.

    ``reason`` is an ``errno`` value: 0 for a clean close, ``ECONNRESET``
    when a RST was received, ``ETIMEDOUT`` after excessive retransmission
    timer expirations, ``ENETUNREACH``/``EHOSTUNREACH`` for ICMP-style
    failures.  The §4.1 controller keys its re-establishment timers on it.
    """

    event_type = EventType.SUB_CLOSED
    hook = "on_subflow_closed"
    wire = "token:I time:d subflow_id:H four_tuple:tuple reason:i"

    token: int
    subflow_id: int
    four_tuple: FourTuple
    reason: int


@dataclass(frozen=True)
class TimeoutEvent(Event):
    """``timeout``: a subflow's retransmission timer expired.

    Reports the current (already backed-off) RTO value and how many
    consecutive expirations occurred, so controllers can detect
    underperforming subflows (§4.2, §4.3).
    """

    event_type = EventType.TIMEOUT
    hook = "on_timeout"
    wire = "token:I time:d subflow_id:H rto:d consecutive:H"

    token: int
    subflow_id: int
    rto: float
    consecutive: int


@dataclass(frozen=True)
class AddAddrEvent(Event):
    """``add_addr``: the peer advertised an additional address."""

    event_type = EventType.ADD_ADDR
    hook = "on_add_addr"
    wire = "token:I time:d address_id:B address:addr port:H"

    token: int
    address_id: int
    address: IPAddress
    port: int


@dataclass(frozen=True)
class RemAddrEvent(Event):
    """``rem_addr``: the peer withdrew an address."""

    event_type = EventType.REM_ADDR
    hook = "on_rem_addr"
    wire = "token:I time:d address_id:B"

    token: int
    address_id: int


@dataclass(frozen=True)
class NewLocalAddrEvent(Event):
    """``new_local_addr``: a local interface/address came up."""

    event_type = EventType.NEW_LOCAL_ADDR
    hook = "on_local_addr_up"
    wire = "time:d address:addr iface_name:str"

    address: IPAddress
    iface_name: str
    token: int = 0


@dataclass(frozen=True)
class DelLocalAddrEvent(Event):
    """``del_local_addr``: a local interface/address went down."""

    event_type = EventType.DEL_LOCAL_ADDR
    hook = "on_local_addr_down"
    wire = "time:d address:addr iface_name:str"

    address: IPAddress
    iface_name: str
    token: int = 0
