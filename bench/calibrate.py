"""The reference loop: how fast is this machine right now?

The sandbox the benchmark runs in is a few cores of a shared host, and it
has machine-wide slow spells: the same cell takes 1.5 s, then 2.2 s for
half a minute, then 1.5 s again, with nothing else running in the guest.
A spell that covers a whole run defeats every estimator computed from that
run's wall times alone (median, minimum, quartile), so every timed sample
is bracketed by runs of a fixed piece of work — this loop — and
reported as ``sample ÷ loop × REFERENCE_S``: seconds on a machine on
which the loop takes its nominal time.

The loop is a miniature of the simulator's own inner loop (a heap of
events, slotted packet objects, a dict keyed by tuples, deques, bound
method calls, float arithmetic) so that a spell slows it by about the same
factor as it slows the program.  It imports nothing from ``src/``: a
change to the program cannot move it, and with it the scale of every
result.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque

#: The loop's nominal duration: what it takes on the machine the baseline
#: was recorded on when that machine is calm.  A constant of the
#: instrument, like the metre: changing it rescales every time metric.
REFERENCE_S = 0.05

_FLOWS = 8
_SEGMENTS = 28000
_MSS = 1400


class _Packet:
    __slots__ = ("seq", "size", "sent_at", "acked", "meta")

    def __init__(self, seq: int, size: int, sent_at: float) -> None:
        self.seq = seq
        self.size = size
        self.sent_at = sent_at
        self.acked = False
        self.meta = (seq, size)


class _Flow:
    """A window-limited sender whose ACKs come back half an RTT later."""

    def __init__(self, ident: int, limit: int, queue: list, table: dict, counter: list) -> None:
        self.ident = ident
        self.limit = limit
        self.queue = queue
        self.table = table
        self.counter = counter
        self.next_seq = 0
        self.delivered = 0
        self.cwnd = 10.0
        self.srtt = 0.02
        self.inflight: deque = deque()

    def send(self, now: float) -> None:
        packet = _Packet(self.next_seq, _MSS, now)
        self.next_seq += _MSS
        self.inflight.append(packet)
        self.table[(self.ident, packet.seq)] = packet
        self.counter[0] += 1
        heapq.heappush(self.queue, (now + self.srtt * 0.5, self.counter[0], self.on_ack, packet))

    def on_ack(self, now: float, packet: _Packet) -> None:
        packet.acked = True
        del self.table[(self.ident, packet.seq)]
        inflight = self.inflight
        while inflight and inflight[0].acked:
            self.delivered += inflight.popleft().size
        self.srtt = 0.875 * self.srtt + 0.125 * (now - packet.sent_at)
        self.cwnd = min(self.cwnd + 1.0 / self.cwnd, 64.0)
        while len(inflight) < int(self.cwnd) and self.next_seq < self.limit:
            self.send(now)


def reference_seconds() -> float:
    """Run the reference loop once; returns the host seconds it took.

    The cyclic GC is off while it runs: a collection would walk the heap of
    whatever program shares the process, and the loop must not depend on it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        queue: list = []
        table: dict = {}
        counter = [0]
        limit = _SEGMENTS // _FLOWS * _MSS
        flows = [_Flow(ident, limit, queue, table, counter) for ident in range(_FLOWS)]
        for flow in flows:
            for _ in range(10):
                flow.send(0.0)
        pop = heapq.heappop
        while queue:
            now, _order, handler, packet = pop(queue)
            handler(now, packet)
        elapsed = time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()
    if any(flow.delivered != limit for flow in flows) or table:
        raise RuntimeError("reference loop did not deliver its fixed work")
    return elapsed


class Stopwatch:
    """Times calls, each between two measurements of the machine's speed.

    One measurement is ``LOOPS`` runs of the reference loop.  Calls timed
    back to back share the measurement between them, so every sample is
    bracketed by ``2 × LOOPS`` loops for the price of ``LOOPS``.
    """

    LOOPS = 2

    def __init__(self) -> None:
        reference_seconds()  # untimed: the loop's own first-call costs
        self.restart()

    def _speed(self) -> float:
        # The timed call's garbage is collected first, so that it is not the
        # loop's allocations that trigger its collection.
        gc.collect()
        return sum(reference_seconds() for _ in range(self.LOOPS)) / self.LOOPS

    def restart(self) -> None:
        """Measure the speed afresh: the last measurement is no longer recent."""
        self._before = self._speed()

    def timed(self, call):
        """Run ``call()``; returns ``(result, wall_s, reference_s)``.

        ``reference_s`` is the mean time of the reference loops run right
        before and right after the call.
        """
        started = time.perf_counter()
        result = call()
        wall = time.perf_counter() - started
        after = self._speed()
        reference = (self._before + after) / 2.0
        self._before = after
        return result, wall, reference


def normalised(wall: float, reference: float) -> float:
    """``wall`` in seconds of a machine on which the loop takes ``REFERENCE_S``."""
    return wall / reference * REFERENCE_S
