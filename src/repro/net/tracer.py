"""Packet tracing.

The paper's figures are computed from packet captures (tcpdump on the
Mininet hosts).  The :class:`PacketTracer` is the reproduction's tcpdump: it
attaches to one or more links and records every delivered segment together
with the time and the interfaces involved.  Analysis code (Figure 2a's
sequence plot, Figure 3's SYN-to-SYN delays) works from these records.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.net.interface import Interface
from repro.net.link import Link
from repro.net.packet import Segment, TCPFlags


class PacketRecord:
    """One captured segment.

    Hand-written value object rather than a frozen dataclass: one record
    is built per delivered segment, and the frozen machinery (a guarded
    ``object.__setattr__`` per field) costs more than the rest of the
    capture path.  Treat instances as immutable.
    """

    __slots__ = ("time", "segment", "from_iface", "to_iface", "link")

    def __init__(self, time: float, segment: Segment, from_iface: str, to_iface: str, link: str) -> None:
        self.time = time
        self.segment = segment
        self.from_iface = from_iface
        self.to_iface = to_iface
        self.link = link

    def __repr__(self) -> str:
        return (
            f"PacketRecord(time={self.time!r}, segment={self.segment!r}, "
            f"from_iface={self.from_iface!r}, to_iface={self.to_iface!r}, link={self.link!r})"
        )


class PacketTracer:
    """Records segments delivered on the links it is attached to."""

    def __init__(self, name: str = "trace", keep: Optional[Callable[[Segment], bool]] = None) -> None:
        #: Trace label.
        self.name = name
        self._keep = keep
        self._records: list[PacketRecord] = []
        self._links: list[Link] = []

    @property
    def records(self) -> list[PacketRecord]:
        """All captured records, in capture order.

        Returns a fresh list on every access: the internal buffer keeps
        growing while links deliver, and handing it out directly let
        callers mutate (or be surprised by) the tracer's own state.
        """
        return list(self._records)

    def attach(self, link: Link) -> "PacketTracer":
        """Start capturing deliveries on ``link``.  Returns ``self``."""
        self._links.append(link)
        # Per-link closure: the link name and the record list are bound
        # once, so the per-delivery work is one PacketRecord plus an
        # append.  ``clear()`` empties the list in place, keeping the
        # captured reference valid.
        sim = link.sim
        link_name = link.name
        keep = self._keep
        records = self._records

        def observe(segment: Segment, from_iface: Interface, to_iface: Interface) -> None:
            if keep is not None and not keep(segment):
                return
            records.append(
                PacketRecord(sim.now, segment, from_iface.full_name, to_iface.full_name, link_name)
            )

        link.add_observer(observe)
        return self

    def attach_all(self, links: Iterable[Link]) -> "PacketTracer":
        """Attach to several links at once."""
        for link in links:
            self.attach(link)
        return self

    def clear(self) -> None:
        """Discard all captured records."""
        self._records.clear()

    # ------------------------------------------------------------------
    # convenience filters used by the experiments
    # ------------------------------------------------------------------
    def syn_records(self) -> list[PacketRecord]:
        """SYN segments (not SYN+ACK)."""
        return [
            record for record in self._records
            if record.segment.is_syn and not record.segment.is_ack
        ]

    def data_records(self) -> list[PacketRecord]:
        """Segments carrying payload bytes."""
        return [record for record in self._records if record.segment.payload_len > 0]

    def records_with_flag(self, flag: TCPFlags) -> list[PacketRecord]:
        """Segments with the given TCP flag set."""
        return [record for record in self._records if record.segment.flags & flag]

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PacketTracer {self.name} records={len(self._records)} links={len(self._links)}>"
