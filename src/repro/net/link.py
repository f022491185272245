"""Duplex links with rate, delay, loss and a drop-tail queue.

This is the netem-equivalent of the reproduction.  Each direction of a link
has its own transmitter and queue, so a saturated downlink does not block
the uplink ACK stream (that asymmetry matters for TCP dynamics).

The loss model draws an independent Bernoulli per packet, exactly like the
``loss X%`` netem knob the paper's Mininet scripts use.  Loss is charged
*after* the serialisation delay: a lost packet still occupied the sender's
transmitter, as it does on a real lossy wireless hop.

The send side is bound once, in :meth:`Link.connect`: each interface holds
the ``_Direction`` it transmits into and each direction its two ends, so a
segment goes ``Interface.send -> Link.transmit -> _admit`` (the one place
the queue/drop rule is stated) without an ``id()`` or dictionary lookup.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.net.interface import Interface
from repro.net.packet import Segment
from repro.sim.engine import Simulator


class _Direction:
    """State for one direction of a duplex link."""

    __slots__ = ("near", "far", "queue", "busy", "sending", "wakeup",
                 "tx_packets", "tx_bytes", "dropped_queue", "dropped_loss")

    def __init__(self, near: Interface, far: Interface) -> None:
        self.near = near
        self.far = far
        self.queue: deque[Segment] = deque()
        self.busy = False
        # The segment currently being serialised and the single completion
        # event that services the whole burst: instead of allocating one
        # event per segment, the wakeup is re-armed (with a fresh sequence
        # number, so ordering is untouched) for each queued segment.
        self.sending: Segment | None = None
        self.wakeup = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped_queue = 0
        self.dropped_loss = 0


class Link:
    """A point-to-point duplex link between two interfaces.

    Parameters
    ----------
    sim:
        The simulation engine.
    rate_bps:
        Transmission rate of each direction, in bits per second.
    delay:
        One-way propagation delay in seconds.
    loss_rate:
        Per-packet drop probability in ``[0, 1]``.
    queue_packets:
        Drop-tail queue capacity (packets waiting behind the one currently
        being serialised).
    name:
        Optional label used by traces.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float = 1_000_000_000.0,
        delay: float = 0.0001,
        loss_rate: float = 0.0,
        queue_packets: int = 100,
        name: str = "link",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps!r}")
        if delay < 0:
            raise ValueError(f"link delay cannot be negative, got {delay!r}")
        if queue_packets < 1:
            raise ValueError(f"queue must hold at least one packet, got {queue_packets!r}")
        self._sim = sim
        self._rate_bps = float(rate_bps)
        self._delay = float(delay)
        self.set_loss_rate(loss_rate)
        self._queue_capacity = int(queue_packets)
        self._name = name
        self._directions: tuple[_Direction, ...] = ()
        self._rng = sim.random.substream(f"link:{name}")
        self._observers: list[Callable[[Segment, Interface, Interface], None]] = []
        self._fault_handler: Optional[Callable[[Segment, Interface], list[Segment]]] = None

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @classmethod
    def mbps(
        cls,
        sim: Simulator,
        rate_mbps: float,
        delay_ms: float,
        loss_percent: float = 0.0,
        queue_packets: int = 100,
        name: str = "link",
    ) -> "Link":
        """Construct a link with Mininet-style units (Mbps, ms, percent)."""
        return cls(
            sim,
            rate_bps=rate_mbps * 1_000_000.0,
            delay=delay_ms / 1000.0,
            loss_rate=loss_percent / 100.0,
            queue_packets=queue_packets,
            name=name,
        )

    @property
    def name(self) -> str:
        """Link label."""
        return self._name

    @property
    def sim(self) -> Simulator:
        """The simulation engine this link schedules on."""
        return self._sim

    @property
    def rate_bps(self) -> float:
        """Per-direction rate in bits per second."""
        return self._rate_bps

    @property
    def delay(self) -> float:
        """One-way propagation delay in seconds."""
        return self._delay

    @property
    def loss_rate(self) -> float:
        """Current per-packet loss probability."""
        return self._loss_rate

    def set_loss_rate(self, loss_rate: float) -> None:
        """Change the loss probability at runtime (used by the §4.2/§4.3 scenarios)."""
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss rate must be within [0, 1], got {loss_rate!r}")
        self._loss_rate = float(loss_rate)

    def connect(self, side_a: Interface, side_b: Interface) -> "Link":
        """Plug the two interfaces into this link.  Returns ``self``."""
        if self._directions:
            raise RuntimeError(f"link {self._name} is already connected")
        directions = (_Direction(side_a, side_b), _Direction(side_b, side_a))
        for direction in directions:
            direction.near.attach(self, direction)
        self._directions = directions
        return self

    def _direction_from(self, iface: Interface) -> _Direction:
        """The direction ``iface`` transmits into; it must be plugged in here."""
        if iface._link is not self:
            raise RuntimeError(f"interface {iface.full_name} is not attached to link {self._name}")
        return iface._direction

    def peer_of(self, iface: Interface) -> Interface:
        """The interface at the other end of the link."""
        return self._direction_from(iface).far

    def add_observer(self, callback: Callable[[Segment, Interface, Interface], None]) -> None:
        """Register a callback invoked for every segment *delivered* by the link.

        The callback receives ``(segment, from_interface, to_interface)`` and
        is used by :class:`repro.net.tracer.PacketTracer`.
        """
        self._observers.append(callback)

    def set_fault_handler(
        self, handler: Optional[Callable[[Segment, Interface], list[Segment]]]
    ) -> None:
        """Install (or clear) a fault handler on this link's ingress.

        The handler is called as ``handler(segment, from_iface)`` for every
        segment entering the link and returns the segments that actually
        enter — possibly empty (drop), the original (pass), a mutated copy,
        or several (split).  A handler that holds a segment for later
        re-emits it through :meth:`inject`, which bypasses the handler so
        re-injected traffic is not mutated twice.  This is the hook
        :mod:`repro.faults` drives; only one handler can be installed.
        """
        if handler is not None and self._fault_handler is not None:
            raise RuntimeError(f"link {self._name} already has a fault handler")
        self._fault_handler = handler

    def inject(self, segment: Segment, from_iface: Interface) -> None:
        """Enter a segment into the link, bypassing the fault handler."""
        self._admit(segment, self._direction_from(from_iface))

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Aggregate per-link counters (both directions combined)."""
        totals = {"tx_packets": 0, "tx_bytes": 0, "dropped_queue": 0, "dropped_loss": 0}
        for direction in self._directions:
            totals["tx_packets"] += direction.tx_packets
            totals["tx_bytes"] += direction.tx_bytes
            totals["dropped_queue"] += direction.dropped_queue
            totals["dropped_loss"] += direction.dropped_loss
        return totals

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def transmit(self, segment: Segment, from_iface: Interface) -> None:
        """Accept a segment from ``from_iface`` for transmission."""
        if from_iface._link is not self:  # ``_direction_from``, inline: this runs per segment
            raise RuntimeError(f"interface {from_iface.full_name} is not attached to link {self._name}")
        direction = from_iface._direction
        if self._fault_handler is not None:
            for survivor in self._fault_handler(segment, from_iface):
                self._admit(survivor, direction)
            return
        self._admit(segment, direction)

    def _admit(self, segment: Segment, direction: _Direction) -> None:
        """Queue behind a busy transmitter (drop-tail), or start serialising."""
        if direction.busy:
            if len(direction.queue) >= self._queue_capacity:
                direction.dropped_queue += 1
                return
            direction.queue.append(segment)
            return
        direction.busy = True
        direction.sending = segment
        serialisation = (segment.size_bytes * 8.0) / self._rate_bps
        wakeup = direction.wakeup
        if wakeup is None:
            direction.wakeup = self._sim.schedule(serialisation, self._transmission_done, direction)
        else:
            self._sim.rearm(wakeup, serialisation)

    def _transmission_done(self, direction: _Direction) -> None:
        segment = direction.sending
        direction.tx_packets += 1
        direction.tx_bytes += segment.size_bytes
        # chance(0.0) returns False without consuming a draw, so skipping
        # the call on loss-free links leaves the RNG stream untouched.
        if self._loss_rate and self._rng.chance(self._loss_rate):
            direction.dropped_loss += 1
        else:
            self._sim.schedule_pooled(self._delay, self._deliver, segment, direction.near, direction.far)
        if direction.queue:
            # The wakeup that just fired serialises the next queued segment.
            direction.sending = segment = direction.queue.popleft()
            self._sim.rearm(direction.wakeup, (segment.size_bytes * 8.0) / self._rate_bps)
        else:
            direction.busy = False
            direction.sending = None

    def _deliver(self, segment: Segment, from_iface: Interface, to_iface: Interface) -> None:
        if self._observers:
            for observer in self._observers:
                observer(segment, from_iface, to_iface)
        to_iface.deliver(segment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self._name} {self._rate_bps / 1e6:.1f}Mbps "
            f"{self._delay * 1000:.1f}ms loss={self._loss_rate:.2%}>"
        )
