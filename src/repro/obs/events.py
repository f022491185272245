"""Structured, sim-time-stamped event tracing.

The simulator models *mechanisms* (handshakes, schedulers, path
managers, fault engines); the paper's methodology is *observing* them.
This module provides the substrate: an opt-in :class:`EventLog` that
instrumented components emit :class:`TraceEvent` records into, stamped
with simulated time (never wall time) so a trace is a pure function of
the cell configuration and therefore byte-stable across runs, hosts,
and worker counts.

Zero cost when detached
-----------------------
The log follows the same closure-observer trick as the per-link packet
tracers: ``Simulator.event_log`` defaults to ``None``, and each
instrumented object caches ``log.channel(category)`` — which is the log
itself when the category is enabled and ``None`` otherwise — in an
attribute at construction time.  A hot path then pays exactly one
attribute load and ``None`` check per potential event; when tracing is
off no event object is ever built, so committed baselines and benchmark
ratios are untouched.

Bounding
--------
A log is bounded (:data:`DEFAULT_LIMIT` events).  Once full it counts
drops instead of growing, so a runaway cell cannot exhaust memory; the
``dropped`` counter is exported alongside the events so a truncated
trace is never mistaken for a complete one.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["CATEGORIES", "DEFAULT_LIMIT", "EventLog", "TraceEvent"]

#: Every event category the instrumentation hooks emit, in stable order.
#: The set doubles as the coverage alphabet for fuzz campaigns: the
#: distinct ``(category, name)`` pairs a plan exercises form its
#: :meth:`EventLog.coverage_signature`.
CATEGORIES: Tuple[str, ...] = (
    "connection",
    "fallback",
    "fault",
    "pm",
    "scheduler",
    "subflow",
    "timer",
)

#: Default cap on recorded events per log (drops are counted beyond it).
DEFAULT_LIMIT = 100_000


class TraceEvent:
    """One structured trace record.

    Attributes
    ----------
    time:
        Simulated time of the event in seconds.
    seq:
        Monotonic per-log sequence number; breaks ties between events
        emitted at the same simulated instant, keeping exports totally
        ordered and byte-stable.
    category:
        One of :data:`CATEGORIES`.
    name:
        The event name within the category (``"established"``,
        ``"retransmit"``, ``"strip_option"``...).
    subject:
        The emitting entity (``"client/conn-0000002a"``, a timer name,
        a fault target link).
    detail:
        Optional mapping of JSON-safe primitives with event-specific
        context, or ``None``.
    """

    __slots__ = ("time", "seq", "category", "name", "subject", "detail")

    def __init__(
        self,
        time: float,
        seq: int,
        category: str,
        name: str,
        subject: str,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.category = category
        self.name = name
        self.subject = subject
        self.detail = detail

    def as_dict(self) -> Dict[str, Any]:
        """The event as a plain dict (the JSONL export schema)."""
        return {
            "time": self.time,
            "seq": self.seq,
            "category": self.category,
            "name": self.name,
            "subject": self.subject,
            "detail": self.detail,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent(t={self.time:.6f} #{self.seq} "
            f"{self.category}/{self.name} {self.subject!r})"
        )


class EventLog:
    """A bounded, category-filtered collector of :class:`TraceEvent`.

    Parameters
    ----------
    categories:
        Iterable of category names to record, or ``None`` for all of
        :data:`CATEGORIES`.  Unknown names raise ``ValueError`` so a
        typo cannot silently record nothing.
    limit:
        Maximum number of events to retain; further emits only bump
        ``dropped``.
    """

    def __init__(
        self,
        categories: Optional[Iterable[str]] = None,
        limit: int = DEFAULT_LIMIT,
    ) -> None:
        if categories is None:
            enabled = set(CATEGORIES)
        else:
            enabled = set(categories)
            unknown = enabled.difference(CATEGORIES)
            if unknown:
                raise ValueError(
                    f"unknown event categories: {sorted(unknown)}; "
                    f"known: {list(CATEGORIES)}"
                )
        if limit <= 0:
            raise ValueError(f"event log limit must be positive, got {limit}")
        self._enabled = frozenset(enabled)
        #: The retention cap this log was built with.
        self.limit = int(limit)
        self._events: List[TraceEvent] = []
        self._next_seq = 0
        #: Events discarded after the log filled up.
        self.dropped = 0

    @property
    def categories(self) -> Tuple[str, ...]:
        """The enabled categories, in the stable :data:`CATEGORIES` order."""
        return tuple(cat for cat in CATEGORIES if cat in self._enabled)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """The recorded events as an immutable snapshot (emit order)."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(tuple(self._events))

    def enabled(self, category: str) -> bool:
        """Whether ``category`` is recorded by this log."""
        return category in self._enabled

    def channel(self, category: str) -> Optional["EventLog"]:
        """The log itself when ``category`` is enabled, else ``None``.

        Instrumented objects cache this per category at construction so
        their hot paths reduce to ``if self._trace_x is not None:``.
        """
        return self if category in self._enabled else None

    def emit(
        self,
        time: float,
        category: str,
        name: str,
        subject: str,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one event (or count a drop once the log is full).

        ``detail`` values must be JSON-safe primitives — the exports
        serialise them verbatim.
        """
        if len(self._events) >= self.limit:
            self.dropped += 1
            return
        self._events.append(
            TraceEvent(time, self._next_seq, category, name, subject, detail)
        )
        self._next_seq += 1

    def counts_by_category(self) -> Dict[str, int]:
        """Recorded event counts keyed by category (sorted, zero-free)."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return dict(sorted(counts.items()))

    def coverage_signature(self) -> Tuple[Tuple[str, str], ...]:
        """The sorted distinct ``(category, name)`` pairs this log saw.

        Fuzz campaigns can use the signature as a cheap coverage map:
        two fault plans that exercise the same signature hit the same
        code-path alphabet even if their metric outcomes differ.
        """
        return tuple(sorted({(e.category, e.name) for e in self._events}))
