"""MPTCP stack configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tcp.config import TcpConfig


@dataclass(frozen=True)
class MptcpConfig:
    """Per-stack MPTCP configuration.

    The defaults mirror the Linux MPTCP kernel used in the paper: the
    lowest-RTT scheduler, coupled (LIA) congestion control, announcement of
    additional local addresses with ADD_ADDR, and opportunistic reinjection
    of data stranded on a subflow whose retransmission timer expired.
    """

    tcp: TcpConfig = field(default_factory=TcpConfig)
    """TCP settings shared by all subflows."""

    scheduler: str = "lowest_rtt"
    """Packet scheduler: ``"lowest_rtt"``, ``"round_robin"`` or ``"redundant"``."""

    allow_fallback: bool = True
    """Fall back to plain TCP when MPTCP signalling is broken in transit.

    Covers both downgrade points of RFC 6824 §3.6: a handshake whose
    MP_CAPABLE was stripped by a middlebox establishes a single-subflow
    plain-TCP connection, and a single-subflow connection whose DSS options
    are corrupted mid-stream degrades to an infinite mapping instead of
    stalling.  With ``False`` the stack keeps the pre-fallback behaviour:
    plain SYNs are reset and mapping-less data is ignored."""

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
