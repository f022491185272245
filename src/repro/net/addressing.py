"""IPv4 addresses, endpoints and connection four-tuples.

Multipath TCP is all about four-tuples: the initial subflow is identified by
one, every additional subflow by another, and the Netlink command to create a
subflow takes an arbitrary four-tuple (§3 of the paper).  This module gives
those concepts first-class, hashable types.
"""

from __future__ import annotations

import struct
from functools import lru_cache, total_ordering
from typing import Union


@total_ordering
class IPAddress:
    """A dotted-quad IPv4 address with an integer form for hashing/packing."""

    __slots__ = ("_value", "_str")

    def __init__(self, address: Union[str, int, "IPAddress"]) -> None:
        self._str: Union[str, None] = None
        if isinstance(address, IPAddress):
            self._value = address._value
        elif isinstance(address, int):
            if not 0 <= address <= 0xFFFFFFFF:
                raise ValueError(f"IPv4 integer out of range: {address!r}")
            self._value = address
        elif isinstance(address, str):
            self._value = self._parse(address)
        else:
            raise TypeError(f"cannot build an IPAddress from {address!r}")

    @staticmethod
    @lru_cache(maxsize=1024)
    def _parse(text: str) -> int:
        # Memoised: scenarios spell the same few addresses in every cell.
        parts = text.strip().split(".")
        if len(parts) != 4:
            raise ValueError(f"invalid IPv4 address: {text!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise ValueError(f"invalid IPv4 address: {text!r}")
            octet = int(part)
            if octet > 255:
                raise ValueError(f"invalid IPv4 address: {text!r}")
            value = (value << 8) | octet
        return value

    @property
    def value(self) -> int:
        """The address as a 32-bit integer."""
        return self._value

    def packed(self) -> bytes:
        """The address as 4 network-order bytes."""
        return struct.pack("!I", self._value)

    @classmethod
    def from_packed(cls, data: bytes) -> "IPAddress":
        """Rebuild an address from its 4-byte network-order form."""
        if len(data) != 4:
            raise ValueError(f"expected 4 bytes, got {len(data)}")
        return cls(struct.unpack("!I", data)[0])

    def same_subnet(self, other: "IPAddress", prefix_len: int = 24) -> bool:
        """True when both addresses share the given prefix."""
        if not 0 <= prefix_len <= 32:
            raise ValueError(f"invalid prefix length {prefix_len!r}")
        if prefix_len == 0:
            return True
        mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
        return (self._value & mask) == (other.value & mask)

    def __str__(self) -> str:
        # Cached: trace digests render the same handful of addresses over
        # and over.  The instance is immutable, so the string never stales.
        text = self._str
        if text is None:
            v = self._value
            text = f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"
            self._str = text
        return text

    def __repr__(self) -> str:
        return f"IPAddress('{self}')"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPAddress):
            return self._value == other._value
        if isinstance(other, str):
            try:
                return self._value == IPAddress(other)._value
            except ValueError:
                return False
        return NotImplemented

    def __lt__(self, other: "IPAddress") -> bool:
        if isinstance(other, IPAddress):
            return self._value < other._value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)


def ip(address: Union[str, int, IPAddress]) -> IPAddress:
    """Convenience constructor used throughout the code base."""
    return IPAddress(address)


class FourTuple:
    """A TCP connection/subflow identifier: (saddr, sport, daddr, dport).

    Value object with dataclass-like semantics (equality and hashing over
    the four fields).  Hand-written rather than a frozen dataclass because
    one is built per demultiplexed segment: the constructor normalises the
    addresses, validates the ports and precomputes the hash in a single
    pass, and must stay cheap.  Instances are immutable by convention.
    """

    __slots__ = ("src", "sport", "dst", "dport", "_hash")

    def __init__(self, src: IPAddress, sport: int, dst: IPAddress, dport: int) -> None:
        if type(src) is not IPAddress:
            src = IPAddress(src)
        if type(dst) is not IPAddress:
            dst = IPAddress(dst)
        if not 0 <= sport <= 0xFFFF:
            raise ValueError(f"sport out of range: {sport!r}")
        if not 0 <= dport <= 0xFFFF:
            raise ValueError(f"dport out of range: {dport!r}")
        self.src = src
        self.sport = sport
        self.dst = dst
        self.dport = dport
        self._hash = hash((src._value, sport, dst._value, dport))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FourTuple):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.sport == other.sport
            and self.dport == other.dport
            and self.src._value == other.src._value
            and self.dst._value == other.dst._value
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FourTuple(src={self.src!r}, sport={self.sport!r}, dst={self.dst!r}, dport={self.dport!r})"

    def reversed(self) -> "FourTuple":
        """The same flow as seen from the other end."""
        return FourTuple(self.dst, self.dport, self.src, self.sport)

    def packed(self) -> bytes:
        """12-byte wire form (saddr, daddr, sport, dport) used by the codec."""
        return self.src.packed() + self.dst.packed() + struct.pack("!HH", self.sport, self.dport)

    @classmethod
    def from_packed(cls, data: bytes) -> "FourTuple":
        """Rebuild a four-tuple from :meth:`packed` output."""
        if len(data) != 12:
            raise ValueError(f"expected 12 bytes, got {len(data)}")
        src = IPAddress.from_packed(data[0:4])
        dst = IPAddress.from_packed(data[4:8])
        sport, dport = struct.unpack("!HH", data[8:12])
        return cls(src, sport, dst, dport)

    def ecmp_key(self) -> bytes:
        """Canonical bytes hashed by ECMP routers (direction-independent).

        Real routers hash each direction separately; hashing a canonical
        ordering keeps both directions of one subflow on the same emulated
        path, which matches how the paper's Mininet topology pins a flow to
        one of the load-balanced paths.
        """
        forward = (self.src.value, self.sport, self.dst.value, self.dport)
        backward = (self.dst.value, self.dport, self.src.value, self.sport)
        a, b, c, d = min(forward, backward)
        return struct.pack("!IHIH", a, b, c, d)

    def __str__(self) -> str:
        return f"{self.src}:{self.sport}->{self.dst}:{self.dport}"
