"""Restartable and periodic timers built on the simulator.

TCP needs a *restartable* retransmission timer (armed, re-armed on every
ACK, backed off on expiry); controllers need *periodic* timers (the Refresh
controller of §4.4 polls subflow rates every 2.5 s).  Both are thin wrappers
around :class:`repro.sim.engine.Simulator` scheduling that take care of the
book-keeping and cancellation corner cases.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Optional

from repro.sim.engine import _MAX_EVENT_TIME, ScheduledEvent, Simulator


class Timer:
    """A single-shot, restartable timer.

    The callback receives no arguments; capture context in a closure or a
    bound method.  ``expiry`` is the absolute simulated time of the pending
    expiry, ``None`` while the timer is not armed.  ``armed`` is True while
    the timer counts down: a plain attribute, because the TCP and MPTCP
    send paths read it on every segment.

    A timer keeps one :class:`ScheduledEvent` from its first start until
    it is stopped.  Liveness is decided by the heap entry's sequence number
    (see :mod:`repro.sim.engine`): restarting an armed timer re-keys the
    event — a fresh sequence number, the same one a cancel-and-push would
    draw, and a second heap entry — so the entry for the old deadline is
    dead without a cancel call or a new event object.  Restarting a timer
    that fired queues the same event again.  ``stop`` cancels the event and
    lets it go; the next start pushes a fresh one.

    The callback is usually a bound method of the timer's owner, so the
    owner and its timer form a reference cycle.  :meth:`release` stops the
    timer for good and drops the callback: a socket or connection that
    closed releases its timers, and reference counting frees it without
    the cyclic GC.  Starting a released timer raises.
    """

    __slots__ = ("_sim", "_callback", "name", "_event", "expiry", "armed", "_trace")

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "timer") -> None:
        self._sim = sim
        self._callback = callback
        #: Human-readable timer name (used in traces and error messages).
        self.name = name
        self._event: Optional[ScheduledEvent] = None
        self.expiry: Optional[float] = None
        self.armed = False
        log = sim.event_log
        self._trace = log.channel("timer") if log is not None else None

    @property
    def remaining(self) -> Optional[float]:
        """Seconds until expiry, if armed."""
        if self.expiry is None:
            return None
        return max(0.0, self.expiry - self._sim.now)

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        sim = self._sim
        expiry = sim.now + delay
        event = self._event
        if event is None:
            if self._callback is None:
                raise RuntimeError(f"timer {self.name!r} was released and cannot start")
            self._event = sim._push(expiry, self._fire, (), None)
        else:
            if not sim.now <= expiry <= _MAX_EVENT_TIME:
                sim._reject_time(expiry)
            if self.armed:
                sim._dead += 1  # the entry for the old deadline
            else:  # it fired
                event._executed = False
                sim._pending += 1
            event.time = expiry
            event._seq = seq = next(sim._sequence)
            heappush(sim._queue, (expiry, seq, event))
        self.expiry = expiry
        self.armed = True

    def stop(self) -> None:
        """Disarm the timer if it is armed."""
        if self.armed:
            self._event.cancel()
        self._event = None
        self.expiry = None
        self.armed = False

    def release(self) -> None:
        """Stop the timer for good and drop its callback (its owner closed)."""
        self.stop()
        self._callback = None

    def _fire(self) -> None:
        self.expiry = None
        self.armed = False
        if self._trace is not None:
            self._trace.emit(self._sim.now, "timer", "fire", self.name)
        self._callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"expires at {self.expiry:.6f}" if self.armed else "idle"
        return f"<Timer {self.name} {state}>"


class PeriodicTimer:
    """A timer that re-arms itself after every expiry until stopped.

    The first tick happens ``interval`` seconds after :meth:`start` (or after
    ``initial_delay`` when given).  The callback may call :meth:`stop` to end
    the series.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        name: str = "periodic",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"periodic timer interval must be positive, got {interval!r}")
        self._sim = sim
        #: Seconds between ticks.
        self.interval = interval
        self._callback = callback
        self._name = name
        self._event: Optional[ScheduledEvent] = None
        #: True while the timer keeps re-arming itself.
        self.running = False
        #: Number of times the callback fired.
        self.ticks = 0
        log = sim.event_log
        self._trace = log.channel("timer") if log is not None else None

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin the periodic series."""
        if self.running:
            return
        self.running = True
        delay = self.interval if initial_delay is None else initial_delay
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Stop the series; a pending tick is cancelled."""
        self.running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if not self.running:
            return
        self.ticks += 1
        if self._trace is not None:
            self._trace.emit(self._sim.now, "timer", "fire", self._name)
        self._callback()
        if self.running:
            self._event = self._sim.schedule(self.interval, self._fire)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return f"<PeriodicTimer {self._name} every {self.interval}s [{state}] ticks={self.ticks}>"
