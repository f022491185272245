"""Sender retransmission queue and receiver reassembly tracking.

These helpers keep :mod:`repro.tcp.socket` readable: the socket deals with
the protocol state machine while the byte-range bookkeeping lives here.
Both structures work on (sequence, length) ranges — no payload bytes are
stored anywhere in the reproduction.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Optional


@dataclass(slots=True)
class SentSegment:
    """One segment sitting in the retransmission queue."""

    seq: int
    length: int
    metadata: Any
    first_sent_at: float
    last_sent_at: float
    retransmitted: bool = False
    transmissions: int = 1
    sacked: bool = False
    lost: bool = False

    @property
    def end_seq(self) -> int:
        """Sequence number one past the last byte of this segment."""
        return self.seq + self.length


class RetransmissionQueue:
    """Ordered queue of sent-but-unacknowledged segments."""

    def __init__(self) -> None:
        # A deque: cumulative ACKs strip segments from the front, so the
        # hot ``ack_upto`` path must not shift the whole list per segment.
        self._segments: deque[SentSegment] = deque()

    def __len__(self) -> int:
        return len(self._segments)

    def __bool__(self) -> bool:
        return bool(self._segments)

    @property
    def segments(self) -> "deque[SentSegment]":
        """The queued segments in sequence order (do not mutate)."""
        return self._segments

    def push(self, segment: SentSegment) -> None:
        """Append a newly transmitted segment (sequence order is maintained
        because new data is always sent at ``snd_nxt``)."""
        self._segments.append(segment)

    def head(self) -> Optional[SentSegment]:
        """The oldest unacknowledged segment, if any."""
        return self._segments[0] if self._segments else None

    def ack_upto(self, ack: int) -> list[SentSegment]:
        """Remove and return every segment fully covered by ``ack``."""
        segments = self._segments
        acked: list[SentSegment] = []
        while segments and segments[0].seq + segments[0].length <= ack:
            acked.append(segments.popleft())
        return acked

    def outstanding_bytes(self) -> int:
        """Total unacknowledged payload bytes."""
        return sum(segment.length for segment in self._segments)

    def metadata_items(self) -> list[Any]:
        """Metadata of every outstanding segment (used for MPTCP reinjection)."""
        return [segment.metadata for segment in self._segments if segment.metadata is not None]

    def clear(self) -> list[SentSegment]:
        """Drop everything (connection aborted); returns what was pending."""
        pending = list(self._segments)
        self._segments.clear()
        return pending


@dataclass(slots=True)
class _Range:
    start: int
    end: int
    stamp: int = 0


_BY_STAMP = attrgetter("stamp")
_BY_END = attrgetter("end")


class ReceiveReassembly:
    """Tracks the receiver's cumulative sequence progress.

    ``register`` accepts possibly out-of-order, possibly overlapping
    (retransmitted) ranges and advances ``rcv_nxt`` over any contiguous
    prefix.  The number of *new* bytes covered is returned so callers can
    keep byte counters without double counting duplicates.  ``rcv_nxt``, the
    next expected in-order sequence number, is a plain attribute (read for
    every emitted segment) that only this class writes.

    The out-of-order list is kept sorted, disjoint and non-adjacent (two
    ranges that touch are one range), so ``start`` and ``end`` are both
    increasing along it and a register costs a bisection plus the ranges it
    actually touches, whatever the depth of the window behind the hole.
    """

    def __init__(self, initial_seq: int = 0) -> None:
        self.rcv_nxt = initial_seq
        self._out_of_order: list[_Range] = []
        self._duplicate_bytes = 0
        self._stamp = 0

    @property
    def has_out_of_order(self) -> bool:
        """True while at least one range is buffered beyond a hole."""
        return bool(self._out_of_order)

    @property
    def out_of_order_ranges(self) -> list[tuple[int, int]]:
        """Currently buffered out-of-order ranges as (start, end) tuples."""
        return [(r.start, r.end) for r in self._out_of_order]

    def sack_blocks(self, limit: int = 4) -> list[tuple[int, int]]:
        """Out-of-order ranges ordered most-recently-updated first (RFC 2018).

        Reporting the most recently received block first matters: it is what
        lets the sender learn about *every* hole within a round trip even
        though each ACK only carries a handful of blocks.
        """
        ordered = sorted(self._out_of_order, key=_BY_STAMP, reverse=True)
        return [(r.start, r.end) for r in ordered[:limit]]

    @property
    def duplicate_bytes(self) -> int:
        """Bytes received more than once (retransmissions/spurious)."""
        return self._duplicate_bytes

    def register(self, seq: int, length: int) -> int:
        """Record a received range; returns the number of new bytes."""
        if length < 0:
            raise ValueError(f"length cannot be negative: {length!r}")
        if length == 0:
            return 0
        start, end = seq, seq + length
        rcv_nxt = self.rcv_nxt
        if end <= rcv_nxt:
            self._duplicate_bytes += length
            return 0
        if start < rcv_nxt:
            self._duplicate_bytes += rcv_nxt - start
            start = rcv_nxt
        if start == rcv_nxt and not self._out_of_order:
            # In-order fast path: nothing to merge, the window just slides.
            self.rcv_nxt = end
            return end - start
        new_bytes = self._insert(start, end)
        self._advance()
        return new_bytes

    def consume_fin(self, fin_seq: int) -> None:
        """Step over the peer's FIN, which occupies sequence number ``fin_seq``."""
        if fin_seq >= self.rcv_nxt:
            self.rcv_nxt = fin_seq + 1

    def _insert(self, start: int, end: int) -> int:
        """Merge [start, end) into the out-of-order list, returning new bytes."""
        ranges = self._out_of_order
        # First range reaching ``start`` (ends are increasing): everything
        # before it lies strictly below the new range and stays untouched.
        first = bisect_left(ranges, start, key=_BY_END)
        new_bytes = end - start
        last, count = first, len(ranges)
        while last < count:
            existing = ranges[last]
            other_start, other_end = existing.start, existing.end
            if other_start > end:
                break
            overlap = (end if end < other_end else other_end) - (
                start if start > other_start else other_start
            )
            if overlap > 0:
                self._duplicate_bytes += overlap
                new_bytes -= overlap
            if other_start < start:
                start = other_start
            if other_end > end:
                end = other_end
            last += 1
        self._stamp += 1
        ranges[first:last] = [_Range(start, end, self._stamp)]
        return max(new_bytes, 0)

    def _advance(self) -> None:
        ranges = self._out_of_order
        rcv_nxt = self.rcv_nxt
        consumed = 0
        for head in ranges:
            if head.start > rcv_nxt:
                break
            if head.end > rcv_nxt:
                rcv_nxt = head.end
            consumed += 1
        if consumed:
            self.rcv_nxt = rcv_nxt
            del ranges[:consumed]

    def missing_before(self, seq: int) -> bool:
        """True when there is a gap between ``rcv_nxt`` and ``seq``."""
        return seq > self.rcv_nxt
