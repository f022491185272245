"""Common application plumbing."""

from __future__ import annotations

from typing import Optional

from repro.mptcp.connection import ConnectionListener, MptcpConnection


class Application(ConnectionListener):
    """Base class for simulated applications.

    Applications are :class:`~repro.mptcp.connection.ConnectionListener`
    instances with a little extra bookkeeping that every experiment wants:
    the connection they are bound to and the times of the main life-cycle
    transitions.
    """

    def __init__(self, name: str = "app") -> None:
        self.name = name
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
