"""Long-lived, mostly idle connections (§4.1).

Chat, notification and ssh-style applications keep a connection open for
hours and only exchange small messages now and then.  The application here
sends a small message on demand (or periodically) and records when each
message is acknowledged, so experiments can verify that the connection
still works after middlebox state expired and subflows were repaired by the
userspace full-mesh controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.base import Application
from repro.mptcp.connection import MptcpConnection
from repro.sim.timers import PeriodicTimer


@dataclass
class MessageRecord:
    """One small application message."""

    index: int
    sent_at: float
    data_end: int
    acked_at: Optional[float] = None

    @property
    def delivery_time(self) -> Optional[float]:
        """Seconds until the message was acknowledged end to end."""
        if self.acked_at is None:
            return None
        return self.acked_at - self.sent_at


class LongLivedApp(Application):
    """Client side of a long-lived connection."""

    name = "long-lived"

    def __init__(self, message_bytes: int = 200, message_interval: Optional[float] = None) -> None:
        super().__init__()
        if message_bytes <= 0:
            raise ValueError("message_bytes must be positive")
        self.message_bytes = message_bytes
        self.message_interval = message_interval
        self.messages: list[MessageRecord] = []
        self._timer: Optional[PeriodicTimer] = None

    def on_connection_established(self, conn: MptcpConnection) -> None:
        super().on_connection_established(conn)
        if self.message_interval is not None:
            self._timer = PeriodicTimer(
                conn.stack.sim, self.message_interval, self.send_message, name=self.name
            )
            self._timer.start()

    def send_message(self) -> Optional[MessageRecord]:
        """Send one small message; returns its record (``None`` if not connected)."""
        conn = self.connection
        if conn is None or conn.closed:
            return None
        start, end = conn.send(self.message_bytes)
        record = MessageRecord(index=len(self.messages), sent_at=conn.stack.sim.now, data_end=end)
        self.messages.append(record)
        return record

    def on_data_acked(self, conn: MptcpConnection, data_una: int) -> None:
        for record in self.messages:
            if record.acked_at is None and data_una >= record.data_end:
                record.acked_at = conn.stack.sim.now

    def on_connection_closed(self, conn: MptcpConnection) -> None:
        super().on_connection_closed(conn)
        if self._timer is not None:
            self._timer.stop()

    @property
    def delivered_messages(self) -> int:
        """Messages acknowledged by the peer."""
        return sum(1 for record in self.messages if record.acked_at is not None)

    def delivery_times(self) -> list[float]:
        """End-to-end delivery times of every acknowledged message."""
        return [
            record.delivery_time
            for record in self.messages
            if record.delivery_time is not None
        ]


class LongLivedPeer(Application):
    """Server side: counts the received messages."""

    name = "long-lived-peer"

    def __init__(self, message_bytes: int = 200) -> None:
        super().__init__()
        self.message_bytes = message_bytes
        self.received_bytes = 0

    def on_data(self, conn: MptcpConnection, new_bytes: int) -> None:
        self.received_bytes += new_bytes

    def on_connection_finished(self, conn: MptcpConnection) -> None:
        super().on_connection_finished(conn)
        conn.close()
