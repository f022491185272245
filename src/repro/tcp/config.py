"""Tunable TCP parameters.

Defaults follow the Linux kernel the paper runs on (v3.x-era MPTCP kernel):
a 200 ms minimum RTO, a 120 s maximum, 15 retransmission-timer doublings
before the subflow is terminated, an initial window of 10 segments.
Experiments override individual fields instead of monkey-patching sockets.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Initial slow-start threshold (effectively unbounded, like Linux).
INITIAL_SSTHRESH_BYTES = 1 << 30


@dataclass(frozen=True)
class TcpConfig:
    """Per-stack TCP configuration (shared by all subflows of a stack)."""

    mss: int = 1400
    """Maximum segment payload size in bytes."""

    initial_cwnd_segments: int = 10
    """Initial congestion window, in segments (RFC 6928)."""

    rto_min: float = 0.2
    """Minimum retransmission timeout in seconds (Linux default)."""

    rto_max: float = 120.0
    """Maximum retransmission timeout in seconds."""

    rto_initial: float = 1.0
    """RTO used before any RTT sample exists (RFC 6298)."""

    max_rto_doublings: int = 15
    """Consecutive expirations after which the subflow is aborted.

    This is ``tcp_retries2``-equivalent behaviour; §4.2 of the paper relies
    on it taking roughly 12 minutes with the default Linux configuration.
    """

    syn_retries: int = 6
    """SYN retransmissions before an active open fails."""

    syn_timeout: float = 1.0
    """Initial SYN retransmission timeout in seconds."""

    dupack_threshold: int = 3
    """Duplicate ACKs that trigger a fast retransmit."""

    congestion_control: str = "lia"
    """Default congestion controller: ``"reno"`` or the coupled ``"lia"``."""

    def __post_init__(self) -> None:
        # Frozen, so checked once here rather than by every socket that
        # shares the configuration.
        self.validate()

    def validate(self) -> None:
        """Raise ``ValueError`` for obviously inconsistent settings."""
        if self.mss <= 0:
            raise ValueError(f"mss must be positive, got {self.mss!r}")
        if self.initial_cwnd_segments <= 0:
            raise ValueError("initial_cwnd_segments must be positive")
        if self.rto_min <= 0 or self.rto_max < self.rto_min:
            raise ValueError("require 0 < rto_min <= rto_max")
        if self.max_rto_doublings < 1:
            raise ValueError("max_rto_doublings must be at least 1")
        if self.dupack_threshold < 1:
            raise ValueError("dupack_threshold must be at least 1")
