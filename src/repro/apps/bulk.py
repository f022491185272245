"""Bulk transfer applications (the §4.4 100 MB file transfer)."""

from __future__ import annotations

from typing import Optional

from repro.apps.base import Application
from repro.mptcp.connection import MptcpConnection


class BulkSenderApp(Application):
    """Writes a fixed number of bytes as soon as the connection is up.

    The completion time recorded is the moment the last byte is
    acknowledged at the data level — the same definition as the file
    transfer times in Figure 2c.
    """

    def __init__(self, total_bytes: int, close_when_done: bool = True, name: str = "bulk-sender") -> None:
        super().__init__(name=name)
        if total_bytes <= 0:
            raise ValueError(f"total_bytes must be positive, got {total_bytes!r}")
        self.total_bytes = total_bytes
        self.close_when_done = close_when_done
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.acked_bytes = 0

    @property
    def completed(self) -> bool:
        """True once every byte has been acknowledged."""
        return self.completed_at is not None

    @property
    def completion_time(self) -> Optional[float]:
        """Transfer duration in seconds (``None`` while incomplete)."""
        if self.completed_at is None or self.started_at is None:
            return None
        return self.completed_at - self.started_at

    def on_connection_established(self, conn: MptcpConnection) -> None:
        super().on_connection_established(conn)
        self.started_at = conn.stack.sim.now
        conn.send(self.total_bytes)

    def on_data_acked(self, conn: MptcpConnection, data_una: int) -> None:
        self.acked_bytes = min(int(data_una), self.total_bytes)
        if data_una >= self.total_bytes and self.completed_at is None:
            self.completed_at = conn.stack.sim.now
            if self.close_when_done:
                conn.close()


class BulkReceiverApp(Application):
    """Counts received bytes and optionally expects a total."""

    def __init__(self, expected_bytes: Optional[int] = None, name: str = "bulk-receiver") -> None:
        super().__init__(name=name)
        self.expected_bytes = expected_bytes
        self.received_bytes = 0
        self.completed_at: Optional[float] = None

    @property
    def completed(self) -> bool:
        """True once the expected byte count arrived (always False if unknown)."""
        return self.completed_at is not None

    def on_data(self, conn: MptcpConnection, new_bytes: int) -> None:
        self.received_bytes += new_bytes
        if (
            self.expected_bytes is not None
            and self.received_bytes >= self.expected_bytes
            and self.completed_at is None
        ):
            self.completed_at = conn.stack.sim.now

    def on_connection_finished(self, conn: MptcpConnection) -> None:
        super().on_connection_finished(conn)
        conn.close()

