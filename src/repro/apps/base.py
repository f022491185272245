"""Common application plumbing."""

from __future__ import annotations

from typing import Optional

from repro.mptcp.connection import ConnectionListener, MptcpConnection


class Application(ConnectionListener):
    """Base class for simulated applications.

    Applications are :class:`~repro.mptcp.connection.ConnectionListener`
    instances with a little extra bookkeeping that every experiment wants:
    the connection they are bound to and the times of the main life-cycle
    transitions.  ``connection`` is set at establishment and reset to
    ``None`` at close, so an app kept after its connection closed (a
    harness keeps every server app) does not keep the connection alive;
    the scalar fields stay.
    """

    name = "app"

    def __init__(self) -> None:
        self.connection: Optional[MptcpConnection] = None
        self.established_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.closed_at: Optional[float] = None

    # ------------------------------------------------------------------
    # ConnectionListener hooks (subclasses extend these)
    # ------------------------------------------------------------------
    def on_connection_established(self, conn: MptcpConnection) -> None:
        self.connection = conn
        self.established_at = conn.stack.sim.now

    def on_connection_finished(self, conn: MptcpConnection) -> None:
        self.finished_at = conn.stack.sim.now

    def on_connection_closed(self, conn: MptcpConnection) -> None:
        self.closed_at = conn.stack.sim.now
        self.connection = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
