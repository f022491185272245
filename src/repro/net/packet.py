"""TCP segments as they travel through the emulated network.

A :class:`Segment` is the unit queued on links, hashed by ECMP routers and
parsed by the TCP/MPTCP stacks.  Payload bytes are represented by a length
only (see DESIGN.md): the reproduction never needs actual application bytes,
which keeps multi-megabyte transfers cheap while preserving every metric the
paper reports.

Segments are built once and then travel through many hot loops (link
serialisation, ECMP hashing, demux, tracing), so the class is tuned for
that access pattern: ``slots=True`` keeps instances small, ``size_bytes``
and ``option_bytes`` are computed once at construction, the header flags
are cached as a plain ``int`` so flag tests bypass ``IntFlag`` machinery,
and a per-segment option-type index makes :meth:`Segment.find_option` a
dict lookup instead of a linear ``isinstance`` scan.  The only field ever
mutated in place after construction is ``ttl`` (by routers); every other
rewrite goes through :func:`dataclasses.replace`, which calls back into
the hand-written ``__init__`` and therefore recomputes the caches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import IntFlag
from typing import Iterable, Optional, Type, TypeVar

from repro.net.addressing import FourTuple, IPAddress

_segment_ids = itertools.count(1)

OptionT = TypeVar("OptionT")


class TCPFlags(IntFlag):
    """The subset of TCP header flags the simulation uses."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


# Plain-int flag masks for the hot-path helpers below; ``IntFlag`` member
# access and ``&`` go through enum machinery, a cached int does not.
_FIN_BIT = 0x01
_SYN_BIT = 0x02
_RST_BIT = 0x04
_PSH_BIT = 0x08
_ACK_BIT = 0x10
_CTRL_BITS = _SYN_BIT | _FIN_BIT | _RST_BIT
_RST_ACK_FLAGS = TCPFlags.RST | TCPFlags.ACK

# A nominal IPv4 + TCP header cost charged on every segment when computing
# link serialisation times.  MPTCP options add their own length on top.
HEADER_BYTES = 40

#: Shared option index for the (very common) option-less segment.
_NO_OPTIONS: dict = {}


@dataclass(init=False, slots=True)
class Segment:
    """One TCP segment.

    Attributes
    ----------
    src, dst:
        Network-layer source and destination addresses.
    sport, dport:
        Transport-layer ports.
    seq, ack:
        Subflow-level sequence and acknowledgement numbers (bytes).
    flags:
        TCP header flags.
    payload_len:
        Number of application bytes carried (no actual bytes are stored).
    options:
        TCP options (including all MPTCP options) carried by this segment.
    window:
        Advertised receive window in bytes.
    sent_at:
        Simulated time at which the sender handed the segment to the
        network; used for RTT sampling and tracing.
    option_bytes, size_bytes:
        Wire sizes, computed once at construction.  Every option class
        must expose ``wire_length`` (there is deliberately no fallback).
    options_by_type:
        Read-only mapping of option class to the first carried instance of
        that class; the demux hot loops use it for O(1) option lookups.
    """

    src: IPAddress
    dst: IPAddress
    sport: int
    dport: int
    seq: int = 0
    ack: int = 0
    flags: TCPFlags = TCPFlags.NONE
    payload_len: int = 0
    options: tuple = field(default_factory=tuple)
    window: int = 65535
    ttl: int = 64
    sent_at: Optional[float] = None
    segment_id: int = field(default_factory=lambda: next(_segment_ids))
    option_bytes: int = field(init=False, repr=False, compare=False)
    size_bytes: int = field(init=False, repr=False, compare=False)
    _flag_bits: int = field(init=False, repr=False, compare=False)
    options_by_type: dict = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        src: IPAddress,
        dst: IPAddress,
        sport: int,
        dport: int,
        seq: int = 0,
        ack: int = 0,
        flags: TCPFlags = TCPFlags.NONE,
        payload_len: int = 0,
        options: tuple = (),
        window: int = 65535,
        ttl: int = 64,
        sent_at: Optional[float] = None,
        segment_id: Optional[int] = None,
    ) -> None:
        # Hand-written so construction is one call instead of the generated
        # ``__init__`` + ``__post_init__`` pair (segments are built on the
        # per-packet hot path).  ``dataclasses.replace`` calls back into this
        # signature, passing the original ``segment_id`` through.
        if payload_len < 0:
            raise ValueError(f"payload_len cannot be negative: {payload_len!r}")
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.payload_len = payload_len
        if type(options) is not tuple:
            options = tuple(options)
        self.options = options
        self.window = window
        self.ttl = ttl
        self.sent_at = sent_at
        self.segment_id = next(_segment_ids) if segment_id is None else segment_id
        self._flag_bits = int(flags)
        if options:
            total = 0
            index: dict = {}
            for option in options:
                total += option.wire_length
                option_type = type(option)
                if option_type not in index:
                    index[option_type] = option
            self.option_bytes = total
            self.options_by_type = index
        else:
            self.option_bytes = 0
            self.options_by_type = _NO_OPTIONS
        self.size_bytes = HEADER_BYTES + self.option_bytes + payload_len

    # ------------------------------------------------------------------
    # flag helpers
    # ------------------------------------------------------------------
    @property
    def is_syn(self) -> bool:
        """True for SYN segments (including SYN+ACK)."""
        return self._flag_bits & _SYN_BIT != 0

    @property
    def is_ack(self) -> bool:
        """True when the ACK flag is set."""
        return self._flag_bits & _ACK_BIT != 0

    @property
    def is_fin(self) -> bool:
        """True when the FIN flag is set."""
        return self._flag_bits & _FIN_BIT != 0

    @property
    def is_rst(self) -> bool:
        """True when the RST flag is set."""
        return self._flag_bits & _RST_BIT != 0

    @property
    def is_pure_ack(self) -> bool:
        """True for segments that carry no data and no control flags."""
        bits = self._flag_bits
        return bits & _ACK_BIT != 0 and self.payload_len == 0 and bits & _CTRL_BITS == 0

    # ------------------------------------------------------------------
    # option helpers
    # ------------------------------------------------------------------
    def find_option(self, option_type: Type[OptionT]) -> Optional[OptionT]:
        """Return the first option of the given class, or ``None``."""
        index = self.options_by_type
        option = index.get(option_type)
        if option is not None:
            return option
        if not index:
            return None
        # The index is keyed by exact type; fall back to the isinstance
        # scan so lookups by a base class keep working.
        for candidate in self.options:
            if isinstance(candidate, option_type):
                return candidate
        return None

    def has_option(self, option_type: type) -> bool:
        """True when an option of the given class is present."""
        return self.find_option(option_type) is not None

    def with_options(self, options: Iterable) -> "Segment":
        """Return a copy carrying the given options."""
        return replace(self, options=tuple(options))

    # ------------------------------------------------------------------
    # size / identification
    # ------------------------------------------------------------------
    @property
    def four_tuple(self) -> FourTuple:
        """The four-tuple of this segment, in the direction it travels."""
        return FourTuple(self.src, self.sport, self.dst, self.dport)

    @property
    def end_seq(self) -> int:
        """Sequence number of the byte just after this segment's payload.

        SYN and FIN each consume one sequence number, like in real TCP.
        """
        bits = self._flag_bits
        length = self.payload_len
        if bits & _SYN_BIT:
            length += 1
        if bits & _FIN_BIT:
            length += 1
        return self.seq + length

    def flag_names(self) -> str:
        """Compact flag string such as ``"SYN|ACK"`` (used in traces)."""
        bits = self._flag_bits
        names = [
            name
            for bit, name in ((_SYN_BIT, "SYN"), (_ACK_BIT, "ACK"), (_FIN_BIT, "FIN"), (_RST_BIT, "RST"), (_PSH_BIT, "PSH"))
            if bits & bit
        ]
        return "|".join(names) if names else "-"

    def __str__(self) -> str:
        return (
            f"[{self.flag_names()} {self.src}:{self.sport}>{self.dst}:{self.dport}"
            f" seq={self.seq} ack={self.ack} len={self.payload_len}]"
        )


def reset_for(segment: Segment) -> Optional[Segment]:
    """The RFC 793 §3.4 reset answering ``segment``, or ``None`` for a RST.

    A segment carrying an ACK is answered with ``<SEQ=SEG.ACK><CTL=RST>``;
    one without (a bare SYN, whose ack field is meaningless) with
    ``<SEQ=0><ACK=SEG.SEQ+SEG.LEN><CTL=RST,ACK>``.  A RST is never answered.
    """
    if segment.is_rst:
        return None
    if segment.is_ack:
        seq, ack, flags = segment.ack, 0, TCPFlags.RST
    else:
        seq, ack, flags = 0, segment.end_seq, _RST_ACK_FLAGS
    return Segment(
        src=segment.dst, dst=segment.src, sport=segment.dport, dport=segment.sport,
        seq=seq, ack=ack, flags=flags,
    )
