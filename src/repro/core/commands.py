"""Commands a subflow controller can send to the Netlink path manager.

Section 3 of the paper: "it is possible to request the creation of a
subflow [...] based on an arbitrary 4-tuple", "a similar command allows to
remove any established subflow", and "the controller can also retrieve
information from the control block of the Multipath TCP connection or one
of the subflows" (the ``TCP_INFO`` equivalent, including ``snd_una``,
``rto`` and ``pacing_rate``).  A backup-priority command (MP_PRIO) is
provided as a natural extension used by some controllers.

Each class is the one declaration of its message: ``command_type`` is its
number on the wire and ``wire`` its payload as ``field:kind`` entries in
wire order, extending the ``request_id`` / ``token`` head every command
starts with (the kinds are listed in :mod:`repro.core.codec`, which
compiles the string).  Defining the class registers it in
:data:`COMMAND_CLASSES`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar, Optional

from repro.net.addressing import IPAddress


class CommandType(enum.IntEnum):
    """Numeric identifiers used on the wire."""

    CREATE_SUBFLOW = 101
    REMOVE_SUBFLOW = 102
    GET_CONN_INFO = 103
    GET_SUBFLOW_INFO = 104
    LIST_SUBFLOWS = 105
    SET_BACKUP = 106


class ReplyStatus(enum.IntEnum):
    """Outcome of a command."""

    OK = 0
    UNKNOWN_CONNECTION = 1
    UNKNOWN_SUBFLOW = 2
    REJECTED = 3
    INVALID = 4


#: Every concrete command class by its numeric type, filled as the classes
#: below are defined; the codec compiles one layout per entry.
COMMAND_CLASSES: dict[CommandType, type[Command]] = {}


@dataclass(frozen=True)
class Command:
    """Base class for all commands (``request_id`` correlates the reply)."""

    command_type: ClassVar[CommandType]
    wire: ClassVar[str] = "request_id:I token:I"

    request_id: int
    token: int

    def __init_subclass__(cls) -> None:
        COMMAND_CLASSES[cls.command_type] = cls


@dataclass(frozen=True)
class CreateSubflowCommand(Command):
    """Create a subflow from an arbitrary four-tuple.

    ``local_port`` 0 lets the kernel pick an ephemeral port; ``remote_*``
    default to the connection's primary destination when zero/empty.
    """

    command_type = CommandType.CREATE_SUBFLOW
    wire = Command.wire + " local_address:addr local_port:H remote_address:addr? remote_port:H backup:?"

    local_address: IPAddress = IPAddress("0.0.0.0")
    local_port: int = 0
    remote_address: Optional[IPAddress] = None
    remote_port: int = 0
    backup: bool = False


@dataclass(frozen=True)
class RemoveSubflowCommand(Command):
    """Remove an established subflow (by connection-local identifier)."""

    command_type = CommandType.REMOVE_SUBFLOW
    wire = Command.wire + " subflow_id:H reset:?"

    subflow_id: int = 0
    reset: bool = True


@dataclass(frozen=True)
class GetConnInfoCommand(Command):
    """Retrieve connection-level state (data-level ``snd_una`` and friends)."""

    command_type = CommandType.GET_CONN_INFO


@dataclass(frozen=True)
class GetSubflowInfoCommand(Command):
    """Retrieve one subflow's ``TCP_INFO`` (rto, pacing_rate, cwnd, ...)."""

    command_type = CommandType.GET_SUBFLOW_INFO
    wire = Command.wire + " subflow_id:H"

    subflow_id: int = 0


@dataclass(frozen=True)
class ListSubflowsCommand(Command):
    """List the identifiers and four-tuples of a connection's subflows."""

    command_type = CommandType.LIST_SUBFLOWS


@dataclass(frozen=True)
class SetBackupCommand(Command):
    """Change a subflow's backup priority (sends MP_PRIO to the peer)."""

    command_type = CommandType.SET_BACKUP
    wire = Command.wire + " subflow_id:H backup:?"

    subflow_id: int = 0
    backup: bool = True


@dataclass(frozen=True)
class CommandReply:
    """The kernel's answer to a command."""

    request_id: int
    status: ReplyStatus
    payload: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the command succeeded."""
        return self.status == ReplyStatus.OK

