"""MPTCP TCP options (RFC 6824 subset).

The simulation carries options as typed Python objects on
:class:`repro.net.packet.Segment`; the ``wire_length`` of each option is
charged to the link so that header overhead is accounted for, exactly like
a real capture would show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.addressing import IPAddress


# The options built per segment or per handshake (MP_CAPABLE, MP_JOIN, DSS)
# are slotted with a hand-written ``__init__`` rather than frozen: the
# frozen machinery (a guarded ``object.__setattr__`` per field) costs three
# times the rest of construction.  Equality, hashing and ``repr`` are the
# generated ones over every field, exactly as the frozen classes had them.
# Treat instances as immutable.  The rarer options stay frozen dataclasses.


@dataclass(init=False, slots=True, unsafe_hash=True)
class MpCapableOption:
    """MP_CAPABLE: negotiates MPTCP on the initial subflow.

    The SYN carries the sender's random key; the SYN+ACK carries the
    receiver's key; the third ACK echoes both (represented here by carrying
    the sender key again — the simulation does not need the echo to verify
    anything).
    """

    sender_key: int
    receiver_key: Optional[int]
    version: int
    wire_length: int

    def __init__(
        self,
        sender_key: int,
        receiver_key: Optional[int] = None,
        version: int = 0,
        wire_length: int = 12,
    ) -> None:
        if not 0 <= sender_key < (1 << 64):
            raise ValueError("MP_CAPABLE sender key must fit in 64 bits")
        if receiver_key is not None and not 0 <= receiver_key < (1 << 64):
            raise ValueError("MP_CAPABLE receiver key must fit in 64 bits")
        self.sender_key = sender_key
        self.receiver_key = receiver_key
        self.version = version
        self.wire_length = wire_length


@dataclass(init=False, slots=True, unsafe_hash=True)
class MpJoinOption:
    """MP_JOIN: attaches an additional subflow to an existing connection.

    The token is derived from the peer's MP_CAPABLE key and identifies the
    connection the subflow joins.  The backup flag requests backup
    semantics for this subflow (RFC 6824 §3.2).
    """

    token: int
    address_id: int
    backup: bool
    nonce: int
    wire_length: int

    def __init__(
        self,
        token: int,
        address_id: int = 0,
        backup: bool = False,
        nonce: int = 0,
        wire_length: int = 12,
    ) -> None:
        if not 0 <= token < (1 << 32):
            raise ValueError("MP_JOIN token must fit in 32 bits")
        if not 0 <= address_id < 256:
            raise ValueError("MP_JOIN address id must fit in 8 bits")
        self.token = token
        self.address_id = address_id
        self.backup = backup
        self.nonce = nonce
        self.wire_length = wire_length


@dataclass(init=False, slots=True, unsafe_hash=True)
class DssOption:
    """DSS: the data-sequence signal.

    Carries any combination of a data-sequence mapping (``data_seq``,
    ``data_len`` describe which connection-level bytes this segment's
    payload corresponds to), a cumulative data-level acknowledgement
    (``data_ack``) and the DATA_FIN flag.
    """

    data_seq: Optional[int]
    data_len: int
    data_ack: Optional[int]
    data_fin: bool
    wire_length: int

    def __init__(
        self,
        data_seq: Optional[int] = None,
        data_len: int = 0,
        data_ack: Optional[int] = None,
        data_fin: bool = False,
        wire_length: int = 20,
    ) -> None:
        if data_len < 0:
            raise ValueError("DSS data_len cannot be negative")
        if data_seq is not None and data_seq < 0:
            raise ValueError("DSS data_seq cannot be negative")
        if data_ack is not None and data_ack < 0:
            raise ValueError("DSS data_ack cannot be negative")
        self.data_seq = data_seq
        self.data_len = data_len
        self.data_ack = data_ack
        self.data_fin = data_fin
        self.wire_length = wire_length

    @property
    def has_mapping(self) -> bool:
        """True when this option maps payload bytes to data-sequence space."""
        return self.data_seq is not None and self.data_len > 0

    @property
    def mapping_end(self) -> int:
        """Data-sequence number one past the mapped range."""
        if self.data_seq is None:
            raise ValueError("DSS option carries no mapping")
        return self.data_seq + self.data_len


@dataclass(frozen=True)
class AddAddrOption:
    """ADD_ADDR: advertises an additional address of the sender."""

    address_id: int
    address: IPAddress
    port: int = 0

    wire_length: int = 8

    def __post_init__(self) -> None:
        if not 0 <= self.address_id < 256:
            raise ValueError("ADD_ADDR address id must fit in 8 bits")
        if not 0 <= self.port <= 0xFFFF:
            raise ValueError("ADD_ADDR port out of range")


@dataclass(frozen=True)
class RemoveAddrOption:
    """REMOVE_ADDR: withdraws a previously advertised address."""

    address_id: int

    wire_length: int = 4

    def __post_init__(self) -> None:
        if not 0 <= self.address_id < 256:
            raise ValueError("REMOVE_ADDR address id must fit in 8 bits")


@dataclass(frozen=True)
class MpPrioOption:
    """MP_PRIO: changes the backup priority of a subflow at runtime."""

    backup: bool
    address_id: Optional[int] = None

    wire_length: int = 4


@dataclass(frozen=True)
class MpFailOption:
    """MP_FAIL: signals a DSS checksum failure (RFC 6824 §3.6).

    A receiver that detects corrupted data-sequence signalling on a
    single-subflow connection sends MP_FAIL; both ends then fall back to
    plain TCP with an implicit infinite mapping — the subflow's byte
    stream *is* the connection's byte stream from then on.
    """

    data_seq: int = 0

    wire_length: int = 12

    def __post_init__(self) -> None:
        if self.data_seq < 0:
            raise ValueError("MP_FAIL data_seq cannot be negative")


@dataclass(frozen=True)
class MpFastcloseOption:
    """MP_FASTCLOSE: abruptly closes the whole MPTCP connection."""

    receiver_key: int

    wire_length: int = 12

    def __post_init__(self) -> None:
        if not 0 <= self.receiver_key < (1 << 64):
            raise ValueError("MP_FASTCLOSE key must fit in 64 bits")
