"""MPTCP stack configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tcp.config import TcpConfig


@dataclass(frozen=True)
class MptcpConfig:
    """Per-stack MPTCP configuration.

    The defaults mirror the Linux MPTCP kernel used in the paper: the
    lowest-RTT scheduler, coupled (LIA) congestion control, announcement of
    additional local addresses with ADD_ADDR, opportunistic reinjection
    of data stranded on a subflow whose retransmission timer expired, and
    fallback to plain TCP at both downgrade points of RFC 6824 §3.6 (a
    stripped MP_CAPABLE handshake, corrupted DSS options on a
    single-subflow connection).
    """

    tcp: TcpConfig = field(default_factory=TcpConfig)
    """TCP settings shared by all subflows."""

    scheduler: str = "lowest_rtt"
    """Packet scheduler: ``"lowest_rtt"``, ``"round_robin"`` or ``"redundant"``."""

    max_subflows: int = 32
    """Safety cap on concurrent subflows per connection."""

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent settings."""
        self.tcp.validate()
        if self.max_subflows < 1:
            raise ValueError("max_subflows must be at least 1")
        from repro.mptcp.scheduler import SCHEDULER_REGISTRY

        if self.scheduler not in SCHEDULER_REGISTRY:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
