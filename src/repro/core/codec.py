"""Binary encoding of path-manager messages.

The paper's path manager talks to userspace over Netlink, i.e. every event
and command crosses the kernel boundary as a byte string.  The reproduction
keeps that property: events, commands and replies are struct-packed to
bytes on one side of the :class:`repro.core.netlink.NetlinkChannel` and
parsed back on the other side.  Nothing else in the system passes Python
objects across the boundary, so the codec is exercised by every experiment.

Wire format
-----------
Every message starts with a fixed header::

    !BHI   kind (1=event, 2=command, 3=reply), type, payload length

followed by exactly that many payload bytes.  The payload of an event or a
command is declared on its class in :mod:`repro.core.events` /
:mod:`repro.core.commands` as ``wire``, a string of ``field:kind`` entries
in wire order, and compiled here into one ``struct.Struct`` per class.  A
kind is a one-letter ``struct`` code (``I`` ``H`` ``B`` ``i`` ``d``, ``?``
for a flag byte) or one of

=========  =======================================================
``addr``   4 bytes, an :class:`~repro.net.addressing.IPAddress`
``addr?``  a presence byte, then 4 address bytes (zeros if absent)
``tuple``  12 bytes, :meth:`FourTuple.packed`
``str``    ``!H`` length + UTF-8 bytes; last entry only
=========  =======================================================

Command replies carry a small self-describing key/value payload (integers,
floats, strings, lists and nested dictionaries) because the
``TCP_INFO``-style queries return many fields.

Whatever cannot be parsed raises :class:`CodecError` -- a length field that
disagrees with the bytes that follow, an unknown type number, a short or
garbled payload -- never ``struct.error``.
"""

from __future__ import annotations

import struct
from typing import Union

from repro.core.commands import COMMAND_CLASSES, Command, CommandReply, ReplyStatus
from repro.core.events import EVENT_CLASSES, Event
from repro.net.addressing import FourTuple, IPAddress

HEADER = struct.Struct("!BHI")

KIND_EVENT = 1
KIND_COMMAND = 2
KIND_REPLY = 3


class CodecError(ValueError):
    """Raised when a message cannot be encoded or decoded."""


# ----------------------------------------------------------------------
# small value (TLV) encoding used by reply payloads
# ----------------------------------------------------------------------
_VAL_INT = 0
_VAL_FLOAT = 1
_VAL_STR = 2
_VAL_BOOL = 3
_VAL_LIST = 4
_VAL_DICT = 5
_VAL_NONE = 6

Value = Union[int, float, str, bool, None, list, dict]


def _encode_value(value: Value) -> bytes:
    if value is None:
        return struct.pack("!B", _VAL_NONE)
    if isinstance(value, bool):
        return struct.pack("!BB", _VAL_BOOL, 1 if value else 0)
    if isinstance(value, int):
        return struct.pack("!Bq", _VAL_INT, value)
    if isinstance(value, float):
        return struct.pack("!Bd", _VAL_FLOAT, value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return struct.pack("!BH", _VAL_STR, len(raw)) + raw
    if isinstance(value, list):
        parts = [struct.pack("!BH", _VAL_LIST, len(value))]
        parts.extend(_encode_value(item) for item in value)
        return b"".join(parts)
    if isinstance(value, dict):
        parts = [struct.pack("!BH", _VAL_DICT, len(value))]
        for key, item in value.items():
            raw_key = str(key).encode("utf-8")
            parts.append(struct.pack("!H", len(raw_key)) + raw_key)
            parts.append(_encode_value(item))
        return b"".join(parts)
    raise CodecError(f"cannot encode value of type {type(value).__name__}")


def _decode_value(data: bytes, offset: int) -> tuple[Value, int]:
    (tag,) = struct.unpack_from("!B", data, offset)
    offset += 1
    if tag == _VAL_NONE:
        return None, offset
    if tag == _VAL_BOOL:
        (raw,) = struct.unpack_from("!B", data, offset)
        return bool(raw), offset + 1
    if tag == _VAL_INT:
        (value,) = struct.unpack_from("!q", data, offset)
        return value, offset + 8
    if tag == _VAL_FLOAT:
        (value,) = struct.unpack_from("!d", data, offset)
        return value, offset + 8
    if tag == _VAL_STR:
        (length,) = struct.unpack_from("!H", data, offset)
        offset += 2
        return data[offset : offset + length].decode("utf-8"), offset + length
    if tag == _VAL_LIST:
        (count,) = struct.unpack_from("!H", data, offset)
        offset += 2
        items = []
        for _ in range(count):
            item, offset = _decode_value(data, offset)
            items.append(item)
        return items, offset
    if tag == _VAL_DICT:
        (count,) = struct.unpack_from("!H", data, offset)
        offset += 2
        result: dict = {}
        for _ in range(count):
            (key_len,) = struct.unpack_from("!H", data, offset)
            offset += 2
            key = data[offset : offset + key_len].decode("utf-8")
            offset += key_len
            value, offset = _decode_value(data, offset)
            result[key] = value
        return result, offset
    raise CodecError(f"unknown value tag {tag}")


def _open(kind: int, what: str, data: bytes) -> tuple[int, bytes]:
    """Check a message's header; return its type number and its payload."""
    try:
        got, number, length = HEADER.unpack_from(data)
    except struct.error as exc:
        raise CodecError("message too short") from exc
    if got != kind:
        raise CodecError(f"expected {what} message, got kind {got}")
    if len(data) - HEADER.size != length:
        raise CodecError(f"header announces {length} payload bytes, {len(data) - HEADER.size} follow")
    return number, data[HEADER.size :]


# ----------------------------------------------------------------------
# events and commands: one layout per declared class
# ----------------------------------------------------------------------
#: What a ``wire`` entry may name besides a one-letter struct code:
#: kind -> (struct code, field value -> packed bytes, packed bytes -> field value).
#: The fourth kind, ``str``, is the one thing outside the fixed struct (a
#: ``!H`` length and that many UTF-8 bytes) and may only be the last entry.
_KINDS = {
    "addr": ("4s", IPAddress.packed, IPAddress.from_packed),
    "addr?": (  # a presence byte, then the address or zeros
        "5s",
        lambda address: bytes(5) if address is None else b"\x01" + address.packed(),
        lambda raw: IPAddress.from_packed(raw[1:]) if raw[0] else None,
    ),
    "tuple": ("12s", FourTuple.packed, FourTuple.from_packed),
}
_STR_LENGTH = struct.Struct("!H")


class _Layout:
    """The ``wire`` string of one message class, compiled."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        entries = [entry.split(":") for entry in cls.wire.split()]
        self.text = entries.pop()[0] if entries[-1][1] == "str" else None
        # (field name, struct code, value -> packed, packed -> value); no converters for a plain code
        self.fields = [(name, *_KINDS.get(code, (code, None, None))) for name, code in entries]
        self.fixed = struct.Struct("!" + "".join(code for _, code, _, _ in self.fields))

    def pack(self, message: Union[Event, Command]) -> bytes:
        payload = self.fixed.pack(
            *[
                getattr(message, name) if pack is None else pack(getattr(message, name))
                for name, _, pack, _ in self.fields
            ]
        )
        if self.text is not None:
            raw = getattr(message, self.text).encode("utf-8")
            payload += _STR_LENGTH.pack(len(raw)) + raw
        return payload

    def unpack(self, payload: bytes) -> Union[Event, Command]:
        end = self.fixed.size
        fields = {
            name: value if unpack is None else unpack(value)
            for (name, _, _, unpack), value in zip(self.fields, self.fixed.unpack_from(payload))
        }
        if self.text is not None:
            (length,) = _STR_LENGTH.unpack_from(payload, end)
            end += _STR_LENGTH.size + length
            fields[self.text] = payload[end - length : end].decode("utf-8")
        if end != len(payload):
            raise CodecError(f"{self.cls.__name__} takes {end} payload bytes, got {len(payload)}")
        return self.cls(**fields)


_LAYOUTS = {
    (kind, int(number)): _Layout(cls)
    for kind, classes in ((KIND_EVENT, EVENT_CLASSES), (KIND_COMMAND, COMMAND_CLASSES))
    for number, cls in classes.items()
}


def _encode(kind: int, number: int, message: Union[Event, Command]) -> bytes:
    payload = _LAYOUTS[kind, number].pack(message)
    return HEADER.pack(kind, number, len(payload)) + payload


def _decode(kind: int, what: str, data: bytes) -> Union[Event, Command]:
    number, payload = _open(kind, what, data)
    layout = _LAYOUTS.get((kind, number))
    if layout is None:
        raise CodecError(f"{what} message of unknown type {number}")
    try:
        return layout.unpack(payload)
    except (struct.error, UnicodeDecodeError) as exc:
        raise CodecError(f"malformed {layout.cls.__name__}: {exc}") from exc


def encode_event(event: Event) -> bytes:
    """Serialise an event into its wire form."""
    return _encode(KIND_EVENT, event.event_type, event)


def decode_event(data: bytes) -> Event:
    """Parse an event from its wire form."""
    return _decode(KIND_EVENT, "an event", data)


def encode_command(command: Command) -> bytes:
    """Serialise a command into its wire form."""
    return _encode(KIND_COMMAND, command.command_type, command)


def decode_command(data: bytes) -> Command:
    """Parse a command from its wire form."""
    return _decode(KIND_COMMAND, "a command", data)


# ----------------------------------------------------------------------
# replies
# ----------------------------------------------------------------------
_REPLY_HEAD = struct.Struct("!IH")


def encode_reply(reply: CommandReply) -> bytes:
    """Serialise a command reply into its wire form."""
    payload = _REPLY_HEAD.pack(reply.request_id, reply.status) + _encode_value(reply.payload)
    return HEADER.pack(KIND_REPLY, 0, len(payload)) + payload


def decode_reply(data: bytes) -> CommandReply:
    """Parse a command reply from its wire form."""
    _, payload = _open(KIND_REPLY, "a reply", data)
    try:
        request_id, status = _REPLY_HEAD.unpack_from(payload)
        value, end = _decode_value(payload, _REPLY_HEAD.size)
        status = ReplyStatus(status)
    except (struct.error, ValueError) as exc:  # short, not UTF-8, unknown tag or status
        raise CodecError(f"malformed reply: {exc}") from exc
    if not isinstance(value, dict) or end != len(payload):
        raise CodecError("reply payload must decode to one dictionary")
    return CommandReply(request_id, status, value)


def message_kind(data: bytes) -> int:
    """Peek at the kind byte of a wire message (event/command/reply)."""
    if len(data) < HEADER.size:
        raise CodecError("message too short")
    kind, _, _ = HEADER.unpack_from(data, 0)
    return kind
