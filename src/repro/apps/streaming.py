"""The fixed-rate block streaming application of §4.3.

The source writes one block of ``block_bytes`` (64 KB in the paper) every
``interval`` seconds and expects each block to be delivered within the
interval.  The sink reconstructs block boundaries from the connection-level
byte stream (block ``i`` ends at ``(i + 1) * block_bytes``) and records the
delivery delay of every block — the quantity whose CDF Figure 2b plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.base import Application
from repro.mptcp.connection import MptcpConnection
from repro.sim.timers import PeriodicTimer


@dataclass
class BlockRecord:
    """Timing of one streamed block."""

    index: int
    sent_at: float
    delivered_at: Optional[float] = None

    @property
    def completion_time(self) -> Optional[float]:
        """Seconds between the block being written and fully delivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at


class StreamingSourceApp(Application):
    """Writes one block per interval for a fixed number of blocks."""

    name = "stream-source"

    def __init__(
        self,
        block_bytes: int = 64 * 1024,
        interval: float = 1.0,
        block_count: int = 30,
        close_when_done: bool = True,
    ) -> None:
        super().__init__()
        if block_bytes <= 0 or block_count <= 0 or interval <= 0:
            raise ValueError("block_bytes, block_count and interval must be positive")
        self.block_bytes = block_bytes
        self.interval = interval
        self.block_count = block_count
        self.close_when_done = close_when_done
        self.blocks_sent = 0
        self.block_send_times: list[float] = []
        self._timer: Optional[PeriodicTimer] = None

    def on_connection_established(self, conn: MptcpConnection) -> None:
        super().on_connection_established(conn)
        self._timer = PeriodicTimer(conn.stack.sim, self.interval, self._send_block, name=self.name)
        self._send_block()
        if self.block_count > 1:
            self._timer.start(self.interval)

    def _send_block(self) -> None:
        conn = self.connection
        if conn is None or conn.closed:
            if self._timer is not None:
                self._timer.stop()
            return
        if self.blocks_sent >= self.block_count:
            if self._timer is not None:
                self._timer.stop()
            if self.close_when_done:
                conn.close()
            return
        self.block_send_times.append(conn.stack.sim.now)
        conn.send(self.block_bytes)
        self.blocks_sent += 1
        if self.blocks_sent >= self.block_count:
            if self._timer is not None:
                self._timer.stop()
            if self.close_when_done:
                conn.close()


class StreamingSinkApp(Application):
    """Receives the stream and records per-block delivery delays."""

    name = "stream-sink"

    def __init__(self, block_bytes: int = 64 * 1024, interval: float = 1.0) -> None:
        super().__init__()
        self.block_bytes = block_bytes
        self.interval = interval
        self.received_bytes = 0
        self.blocks: list[BlockRecord] = []
        self._stream_started_at: Optional[float] = None

    def on_connection_established(self, conn: MptcpConnection) -> None:
        super().on_connection_established(conn)
        self._stream_started_at = conn.stack.sim.now

    def on_data(self, conn: MptcpConnection, new_bytes: int) -> None:
        if self._stream_started_at is None:
            self._stream_started_at = conn.stack.sim.now
        self.received_bytes += new_bytes
        delivered_blocks = self.received_bytes // self.block_bytes
        while len(self.blocks) < delivered_blocks:
            index = len(self.blocks)
            # Block ``index`` was written by the source at stream start +
            # index * interval (the source's schedule is part of the
            # application contract the controller also relies on).
            sent_at = self._stream_started_at + index * self.interval
            self.blocks.append(BlockRecord(index=index, sent_at=sent_at, delivered_at=conn.stack.sim.now))

    def on_connection_finished(self, conn: MptcpConnection) -> None:
        super().on_connection_finished(conn)
        conn.close()

    def completion_times(self) -> list[float]:
        """Delivery delays (seconds) of every fully delivered block."""
        return [block.completion_time for block in self.blocks if block.completion_time is not None]

    def late_blocks(self, deadline: Optional[float] = None) -> int:
        """Number of blocks delivered after the deadline (default: the interval)."""
        limit = deadline if deadline is not None else self.interval
        return sum(1 for delay in self.completion_times() if delay > limit)
