"""The discrete-event simulator core.

The :class:`Simulator` owns a time-ordered queue of scheduled callbacks.
Every component of the reproduction (links, TCP sockets, the Netlink
channel, controllers, applications) registers callbacks on the same loop,
which makes whole experiments deterministic for a given seed.

Design choices
--------------
* Callbacks, not coroutines.  The networking code is naturally event driven
  (a segment arrives, a timer fires); modelling it with plain callables keeps
  the control flow explicit and easy to unit test.
* One event queue.  A single :mod:`heapq` list of ``(time, seq, event)``
  tuples: every sift step is a C-level float/int compare and the event
  object is never compared (``seq`` is unique).  There is deliberately no
  calendar wheel in front of it.  The 256-bucket x 2 ms wheel + spill heap
  of PRs 6-16 was measured against this heap on ``python -m bench`` (ten
  alternating pairs per workload, speed-normalised median ``wall_s``, wheel
  -> heap): ``bulk_steady`` 1.779 -> 1.687 s, ``many_conns`` 1.614 -> 1.534,
  ``lossy_http_userspace`` 1.528 -> 1.505, ``tiny_cells`` 1.452 -> 1.281,
  ``campaign_store`` 1.104 -> 1.059; ``sim.calls_per_event`` 5.65 -> 4.30.
  The queue holds a few hundred to ~2 000 entries, about 11 C compares per
  push — cheaper than the Python bucket arithmetic that avoided them.  Do
  not add a second tier without a ``bench`` before/after (the full table is
  in docs/ARCHITECTURE.md, *Performance*).  The recycled-event path
  (:meth:`Simulator.schedule_pooled` / :meth:`Simulator.rearm`) was audited
  the same way and pays (+2.4 % / +3.2 % ``wall_s`` without it), so it stays.
* Cancellation by invalidation.  A cancelled :class:`ScheduledEvent` is
  flagged and skipped when popped; a live counter keeps
  :attr:`Simulator.pending_events` O(1), and :meth:`Simulator.run`
  compacts the queue automatically once dead entries pile up past
  ``_AUTO_COMPACT_THRESHOLD``.
* Stable ordering.  Events scheduled for the same instant run in the order
  they were scheduled (a monotonically increasing sequence number breaks
  ties), which removes a whole class of flaky behaviours.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.randomness import RandomSource

#: Largest admissible event time.  Using the float maximum (rather than
#: ``inf``) lets the scheduling guard reject NaN, infinity and the past with
#: one chained comparison on the hot path.
_MAX_EVENT_TIME = 1.7976931348623157e308

#: Lingering cancelled entries that trigger a compaction inside
#: :meth:`Simulator.run`.  Far above what a baseline campaign cell ever
#: accumulates, so the gated ``events_compacted`` metric is unaffected.
_AUTO_COMPACT_THRESHOLD = 1024


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class ScheduledEvent:
    """A handle for a callback scheduled on the simulator.

    The handle can be used to cancel the callback before it runs and to
    inspect whether it already ran.  Instances are created by
    :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at`; they are
    not meant to be constructed directly.
    """

    __slots__ = ("time", "callback", "args", "kwargs", "_cancelled", "_executed", "_sim", "_pooled")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        kwargs: Optional[dict],
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self._cancelled = False
        self._executed = False
        self._sim: Optional["Simulator"] = None
        self._pooled = False

    @property
    def cancelled(self) -> bool:
        """True when the event was cancelled before execution."""
        return self._cancelled

    @property
    def executed(self) -> bool:
        """True when the callback already ran."""
        return self._executed

    @property
    def pending(self) -> bool:
        """True when the event is still waiting to run."""
        return not (self._cancelled or self._executed)

    def cancel(self) -> None:
        """Prevent the callback from running.

        Cancelling an event that already ran or was already cancelled is a
        no-op: the caller only cares that the callback will not run in the
        future.  The owning simulator is informed so its pending/dead
        counters stay exact without scanning the queue.
        """
        if self._executed or self._cancelled:
            return
        self._cancelled = True
        sim = self._sim
        if sim is not None:
            sim._pending -= 1
            sim._dead += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("done" if self._executed else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<ScheduledEvent t={self.time:.6f} {name} [{state}]>"


class Simulator:
    """Deterministic discrete-event loop.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random source.  Experiments derive
        every stochastic decision (link losses, ECMP port draws, latency
        jitter) from this seed, so a run is fully reproducible.
    start_time:
        Initial simulated time in seconds.

    ``now`` is the current simulated time in seconds: a plain attribute,
    read per event by every component and written by this module only.
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self._sequence = itertools.count()
        self._running = False
        self._processed = 0
        # The event queue: one heapq of (time, seq, event) tuples.
        self._queue: list[tuple] = []
        # Live bookkeeping: pending + dead = raw queued entries.
        self._pending = 0
        self._dead = 0
        # Recycled fire-and-forget events (see schedule_pooled).
        self._free: list[ScheduledEvent] = []
        self.random = RandomSource(seed)
        # Structured tracing hook (repro.obs).  Components cache
        # per-category channels off this attribute at construction, so
        # with no log attached the instrumented hot paths pay a single
        # attribute load plus None check and build no event objects.
        self.event_log = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of events still queued and not cancelled.

        Maintained as a live counter (O(1)); cancelled events linger in the
        queue until popped or :meth:`compact`-ed and are counted by
        :attr:`queued_entries` instead.
        """
        return self._pending

    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far."""
        return self._processed

    @property
    def queued_entries(self) -> int:
        """Raw queue size, including cancelled entries (see :meth:`compact`)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay!r})")
        return self.schedule_at(self.now + delay, callback, *args, **kwargs)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> ScheduledEvent:
        """Schedule ``callback`` to run at the absolute simulated ``time``."""
        if not callable(callback):
            raise SimulationError(f"callback must be callable, got {callback!r}")
        if not self.now <= time <= _MAX_EVENT_TIME:  # rejects NaN, inf and the past at once
            self._reject_time(time)
        event = ScheduledEvent(time, callback, args, kwargs)
        event._sim = self
        self._pending += 1
        heappush(self._queue, (time, next(self._sequence), event))
        return event

    def call_soon(self, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> ScheduledEvent:
        """Schedule ``callback`` at the current time (after pending same-time events)."""
        return self.schedule_at(self.now, callback, *args, **kwargs)

    def schedule_pooled(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule a fire-and-forget callback on the recycled-event pool.

        Internal fast path for high-rate schedulers (link serialisation and
        delivery).  No handle is returned, so the event can never be
        cancelled from outside — which is exactly what makes recycling the
        event object safe once it has run.  Sequence numbers are drawn from
        the same counter as :meth:`schedule`, so the execution order is
        identical to scheduling a fresh event.
        """
        time = self.now + delay
        if not self.now <= time <= _MAX_EVENT_TIME:
            self._reject_time(time)
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.callback = callback
            event.args = args
            event._cancelled = False
            event._executed = False
        else:
            event = ScheduledEvent(time, callback, args, None)
            event._sim = self
            event._pooled = True
        self._pending += 1
        heappush(self._queue, (time, next(self._sequence), event))

    def rearm(self, event: ScheduledEvent, delay: float) -> None:
        """Re-arm an event that already ran to fire again ``delay`` from now.

        The event keeps its callback and arguments but draws a fresh
        sequence number, so ordering is identical to scheduling a brand-new
        event — without allocating one.  Only executed events may be
        re-armed: a cancelled-but-queued event still sits inside the heap
        under its old ``(time, seq)`` key.
        """
        if not event._executed:
            raise SimulationError("rearm() requires an event that has already run")
        time = self.now + delay
        if not self.now <= time <= _MAX_EVENT_TIME:
            self._reject_time(time)
        event.time = time
        event._executed = False
        self._pending += 1
        heappush(self._queue, (time, next(self._sequence), event))

    def cancel(self, event: Optional[ScheduledEvent]) -> None:
        """Cancel a previously scheduled event (``None`` is tolerated)."""
        if event is not None:
            event.cancel()

    def compact(self) -> int:
        """Drop cancelled events from the queue and re-heapify it.

        Cancellation is lazy (a heap has no efficient removal), so
        long-lived simulations — and batch drivers such as the sweep engine
        that reuse a process for many cells — accumulate dead entries that
        inflate the queue and slow every push/pop.  Returns the number of
        entries dropped.  :meth:`run` discards cancelled entries as they
        reach the head, so after a run that is exactly the cancelled entries
        ordered after the earliest still-pending event (0 when nothing is
        pending) — the definition of the ``events_compacted`` cell metric.
        """
        if self._running:
            raise SimulationError("cannot compact the queue while the simulator is running")
        return self._compact_queue()

    def _reject_time(self, time: float) -> None:
        if math.isnan(time) or math.isinf(time):
            raise SimulationError(f"invalid event time {time!r}")
        raise SimulationError(
            f"cannot schedule an event at {time!r}, current time is {self.now!r}"
        )

    # ------------------------------------------------------------------
    # event kernel internals
    # ------------------------------------------------------------------
    def _compact_queue(self) -> int:
        """Drop dead entries in place (``run`` holds the list in a local)."""
        dropped = self._dead
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2]._cancelled]
        heapify(queue)
        self._dead = 0
        return dropped

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.

        Returns ``True`` when an event was executed, ``False`` when the
        queue is empty.
        """
        before = self._processed
        self.run(max_events=1)
        return self._processed != before

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        Returns the simulated time when the loop stopped.  When ``until`` is
        given, the clock is advanced to ``until`` even if the queue drained
        earlier, mirroring how an emulation "waits out" its duration.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        self._running = True
        executed = 0
        queue = self._queue
        free = self._free
        # Hoist the optional bounds out of the loop: event times never
        # exceed _MAX_EVENT_TIME, so an absent ``until`` simply never trips.
        limit = _MAX_EVENT_TIME if until is None else until
        budget = -1 if max_events is None else max_events
        try:
            while True:
                if self._dead >= _AUTO_COMPACT_THRESHOLD:
                    self._compact_queue()
                # Cancelled entries are discarded as they reach the head.
                while queue and (entry := queue[0])[2]._cancelled:
                    heappop(queue)
                    self._dead -= 1
                if not queue:
                    break
                if entry[0] > limit:
                    break
                if executed == budget:
                    break
                heappop(queue)
                self._pending -= 1
                event = entry[2]
                self.now = entry[0]
                event._executed = True
                self._processed += 1
                executed += 1
                kwargs = event.kwargs
                if kwargs:
                    event.callback(*event.args, **kwargs)
                else:
                    event.callback(*event.args)
                if event._pooled:
                    event.callback = None
                    event.args = ()
                    free.append(event)
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain, guarding against runaway loops."""
        return self.run(max_events=max_events)
