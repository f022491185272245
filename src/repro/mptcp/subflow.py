"""Subflows: the MPTCP view of one TCP connection.

A :class:`Subflow` pairs a :class:`repro.tcp.socket.TcpSocket` with the
MPTCP-level attributes the path managers and controllers care about: a
per-connection identifier, the backup flag, how the subflow came to exist,
and its life-cycle timestamps.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.net.addressing import FourTuple
from repro.tcp.socket import TcpSocket, TcpState


class SubflowOrigin(enum.Enum):
    """How a subflow came into existence."""

    INITIAL = "initial"
    """The subflow created by the MP_CAPABLE handshake."""

    KERNEL_PM = "kernel_pm"
    """Created by an in-kernel path manager (full-mesh / ndiffports)."""

    CONTROLLER = "controller"
    """Created on request of a userspace subflow controller (the paper's path)."""

    PEER = "peer"
    """Created passively because the peer sent an MP_JOIN."""


class Subflow:
    """One subflow of an MPTCP connection.

    Set once at construction and read as plain attributes: ``id`` (unique
    within the connection), ``socket`` (the underlying TCP socket),
    ``origin`` (how it was created) and ``is_initial`` (true for the
    MP_CAPABLE subflow).

    ``is_usable`` — True when the scheduler may place data on this subflow:
    it is open and its socket sits in ESTABLISHED — is a plain attribute
    too, read by every scheduler pass.  :meth:`sync_state` recomputes it;
    the connection calls it (directly or through :meth:`mark_established` /
    :meth:`mark_closed`) each time its socket enters or leaves ESTABLISHED.
    """

    __slots__ = ("id", "socket", "origin", "is_initial", "backup", "created_at",
                 "established_at", "closed_at", "close_reason", "bytes_scheduled",
                 "reinjected_bytes", "fallback_bytes", "is_usable")

    def __init__(
        self,
        subflow_id: int,
        socket: TcpSocket,
        origin: SubflowOrigin,
        backup: bool = False,
    ) -> None:
        self.id = subflow_id
        self.socket = socket
        self.origin = origin
        self.is_initial = origin is SubflowOrigin.INITIAL
        self.backup = backup
        socket.backup = backup
        self.created_at = socket.sim.now
        self.established_at: Optional[float] = None
        self.closed_at: Optional[float] = None
        self.close_reason: Optional[int] = None
        self.bytes_scheduled = 0
        self.reinjected_bytes = 0
        # Bytes scheduled while the owning connection was in plain-TCP
        # fallback (always a subset of ``bytes_scheduled``; nonzero only on
        # the single surviving subflow of a fallen-back connection).
        self.fallback_bytes = 0
        self.sync_state()

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def four_tuple(self) -> FourTuple:
        """The subflow's four-tuple, from the local point of view."""
        return self.socket.four_tuple

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def is_established(self) -> bool:
        """True while the subflow can carry data."""
        return self.socket.is_established and self.closed_at is None

    @property
    def is_closed(self) -> bool:
        """True once the subflow terminated (cleanly or not)."""
        return self.closed_at is not None or self.socket.is_closed

    def sync_state(self) -> None:
        """Recompute ``is_usable`` after the socket's state changed."""
        # Flattened is_established/is_closed: an open subflow whose socket
        # sits in ESTABLISHED is by definition not closed.
        self.is_usable = self.closed_at is None and self.socket.state is TcpState.ESTABLISHED

    def mark_established(self, when: float) -> None:
        """Record establishment time (called by the connection)."""
        if self.established_at is None:
            self.established_at = when
        self.sync_state()

    def mark_closed(self, when: float, reason: int) -> None:
        """Record closure time and reason (called by the connection)."""
        if self.closed_at is None:
            self.closed_at = when
            self.close_reason = reason
        self.sync_state()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.backup:
            flags.append("backup")
        if self.is_initial:
            flags.append("initial")
        state = "closed" if self.is_closed else ("estab" if self.is_established else "opening")
        extra = f" ({','.join(flags)})" if flags else ""
        return f"<Subflow #{self.id} {self.four_tuple} {state}{extra}>"
