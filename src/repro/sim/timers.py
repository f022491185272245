"""Restartable and periodic timers built on the simulator.

TCP needs a *restartable* retransmission timer (armed, re-armed on every
ACK, backed off on expiry); controllers need *periodic* timers (the Refresh
controller of §4.4 polls subflow rates every 2.5 s).  Both are thin wrappers
around :class:`repro.sim.engine.Simulator` scheduling that take care of the
book-keeping and cancellation corner cases.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import ScheduledEvent, Simulator


class Timer:
    """A single-shot, restartable timer.

    The callback receives no arguments; capture context in a closure or a
    bound method.  Restarting an armed timer cancels the previous deadline.
    ``expiry`` is the absolute simulated time of the pending expiry, ``None``
    while the timer is not armed.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "timer") -> None:
        self._sim = sim
        self._callback = callback
        self._name = name
        self._event: Optional[ScheduledEvent] = None
        self.expiry: Optional[float] = None
        log = sim.event_log
        self._trace = log.channel("timer") if log is not None else None

    @property
    def name(self) -> str:
        """Human-readable timer name (used in traces and error messages)."""
        return self._name

    @property
    def armed(self) -> bool:
        """True when the timer is currently counting down."""
        return self._event is not None  # ``_fire`` and ``stop`` clear it

    @property
    def remaining(self) -> Optional[float]:
        """Seconds until expiry, if armed."""
        if self.expiry is None:
            return None
        return max(0.0, self.expiry - self._sim.now)

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now."""
        event = self._event
        if event is not None:
            event.cancel()
        sim = self._sim
        self.expiry = expiry = sim.now + delay
        self._event = sim.schedule_at(expiry, self._fire)

    def stop(self) -> None:
        """Disarm the timer if it is armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self.expiry = None

    def _fire(self) -> None:
        self._event = None
        self.expiry = None
        if self._trace is not None:
            self._trace.emit(self._sim.now, "timer", "fire", self._name)
        self._callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"expires at {self.expiry:.6f}" if self.armed else "idle"
        return f"<Timer {self._name} {state}>"


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
        self._interval = interval
        self._callback = callback
        self._name = name
        self._event: Optional[ScheduledEvent] = None
        self._running = False
        self._ticks = 0
        log = sim.event_log
        self._trace = log.channel("timer") if log is not None else None

    @property
    def interval(self) -> float:
        """Seconds between ticks."""
        return self._interval

    @property
    def running(self) -> bool:
        """True while the timer keeps re-arming itself."""
        return self._running

    @property
    def ticks(self) -> int:
        """Number of times the callback fired."""
        return self._ticks

    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin the periodic series."""
        if self._running:
            return
        self._running = True
        delay = self._interval if initial_delay is None else initial_delay
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Stop the series; a pending tick is cancelled."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if not self._running:
            return
        self._ticks += 1
        if self._trace is not None:
            self._trace.emit(self._sim.now, "timer", "fire", self._name)
        self._callback()
        if self._running:
            self._event = self._sim.schedule(self._interval, self._fire)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return f"<PeriodicTimer {self._name} every {self._interval}s [{state}] ticks={self._ticks}>"
