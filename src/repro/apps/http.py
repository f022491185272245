"""HTTP/1.0-style request/response applications (the §4.5 workload).

The paper's measurement runs one thousand consecutive ``GET`` requests for
a 512 KB object against lighttpd.  Here the server application answers any
request with ``object_size`` bytes and closes the connection (HTTP/1.0
semantics, one connection per request); the client driver opens the
connections sequentially and records per-request timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.base import Application
from repro.mptcp.connection import MptcpConnection
from repro.mptcp.stack import MptcpStack


class HttpServerApp(Application):
    """Serves a fixed-size object to every connection, then closes it."""

    name = "http-server"

    def __init__(self, object_size: int = 512 * 1024) -> None:
        super().__init__()
        if object_size <= 0:
            raise ValueError(f"object_size must be positive, got {object_size!r}")
        self.object_size = object_size
        self.request_bytes = 0
        self.responded = False

    def on_data(self, conn: MptcpConnection, new_bytes: int) -> None:
        self.request_bytes += new_bytes
        if not self.responded:
            # Any request data triggers the response: the clients of this
            # reproduction send the whole (small) request in one write.
            self.responded = True
            conn.send(self.object_size)
            conn.close()

    def on_connection_finished(self, conn: MptcpConnection) -> None:
        super().on_connection_finished(conn)
        if not conn.closed and not self.responded:
            conn.close()


@dataclass
class HttpRequestRecord:
    """Timing of one HTTP request/response exchange."""

    index: int
    started_at: float
    established_at: Optional[float] = None
    completed_at: Optional[float] = None
    received_bytes: int = 0

    @property
    def completion_time(self) -> Optional[float]:
        """Seconds from connection attempt to full response delivery."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


class _HttpClientConnection(Application):
    """Listener for one request/response exchange."""

    def __init__(self, driver: "HttpClientDriver", record: HttpRequestRecord) -> None:
        super().__init__()
        self.name = f"http-client-{record.index}"
        self._driver = driver
        self._record = record

    def on_connection_established(self, conn: MptcpConnection) -> None:
        super().on_connection_established(conn)
        self._record.established_at = conn.stack.sim.now
        conn.send(self._driver.request_size)

    def on_data(self, conn: MptcpConnection, new_bytes: int) -> None:
        self._record.received_bytes += new_bytes
        if (
            self._record.received_bytes >= self._driver.object_size
            and self._record.completed_at is None
        ):
            self._record.completed_at = conn.stack.sim.now
            self._driver._request_done(self._record)

    def on_connection_finished(self, conn: MptcpConnection) -> None:
        super().on_connection_finished(conn)
        conn.close()

    def on_connection_closed(self, conn: MptcpConnection) -> None:
        super().on_connection_closed(conn)
        self._driver._connection_closed(self._record)


class HttpClientDriver:
    """Issues ``request_count`` sequential GET-style requests.

    A new MPTCP connection is opened for every request (HTTP/1.0), which is
    what makes the workload a good probe of subflow-establishment latency:
    every request exercises the path manager once.
    """

    def __init__(
        self,
        stack: MptcpStack,
        server_address,
        server_port: int,
        request_count: int = 100,
        object_size: int = 512 * 1024,
        request_size: int = 200,
        think_time: float = 0.0,
    ) -> None:
        if request_count <= 0:
            raise ValueError("request_count must be positive")
        self.stack = stack
        self.server_address = server_address
        self.server_port = server_port
        self.request_count = request_count
        self.object_size = object_size
        self.request_size = request_size
        self.think_time = think_time
        self.records: list[HttpRequestRecord] = []
        self.completed_requests = 0
        self._started = False

    def start(self) -> None:
        """Issue the first request (subsequent ones follow automatically)."""
        if self._started:
            return
        self._started = True
        self._issue_next()

    @property
    def done(self) -> bool:
        """True once every request completed."""
        return self.completed_requests >= self.request_count

    def completion_times(self) -> list[float]:
        """Per-request completion times for finished requests."""
        return [record.completion_time for record in self.records if record.completion_time is not None]

    @property
    def total_received_bytes(self) -> int:
        """Response bytes received across every request so far."""
        return sum(record.received_bytes for record in self.records)

    @property
    def last_completion_at(self) -> Optional[float]:
        """Simulated time the most recent request finished (``None`` if none did)."""
        completed = [record.completed_at for record in self.records if record.completed_at is not None]
        return max(completed) if completed else None

    # ------------------------------------------------------------------
    # internal flow
    # ------------------------------------------------------------------
    def _issue_next(self) -> None:
        if len(self.records) >= self.request_count:
            return
        index = len(self.records)
        record = HttpRequestRecord(index=index, started_at=self.stack.sim.now)
        self.records.append(record)
        listener = _HttpClientConnection(self, record)
        self.stack.connect(self.server_address, self.server_port, listener=listener)

    def _request_done(self, record: HttpRequestRecord) -> None:
        self.completed_requests += 1
        if self.done:
            return
        if self.think_time > 0:
            self.stack.sim.schedule(self.think_time, self._issue_next)
        else:
            self.stack.sim.call_soon(self._issue_next)

    def _connection_closed(self, record: HttpRequestRecord) -> None:
        # Nothing to do: the next request was already scheduled when the
        # response completed.  Kept as a hook for failure-injection tests.
        return
