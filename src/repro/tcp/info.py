"""``TCP_INFO``-style state snapshots.

The paper's subflow controllers retrieve kernel state through the Netlink
path manager: the smarter-streaming controller (§4.3) reads ``snd_una`` to
measure block progress and watches the RTO; the refresh controller (§4.4)
polls ``pacing_rate`` every 2.5 s.  :class:`TcpInfo` is the reproduction's
equivalent of the struct returned by ``getsockopt(TCP_INFO)`` plus the
pacing rate exported by recent Linux kernels.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TcpInfo:
    """A point-in-time snapshot of one subflow's transmit state."""

    state: str
    """Connection state name (``"ESTABLISHED"``, ``"SYN_SENT"``, ...)."""

    snd_una: int
    """Oldest unacknowledged sequence number (bytes)."""

    snd_nxt: int
    """Next sequence number to be sent (bytes)."""

    rcv_nxt: int
    """Next expected receive sequence number (bytes)."""

    snd_cwnd: int
    """Congestion window in bytes."""

    ssthresh: int
    """Slow-start threshold in bytes."""

    srtt: float
    """Smoothed RTT in seconds (0.0 before the first sample)."""

    rttvar: float
    """RTT variance in seconds (0.0 before the first sample)."""

    rto: float
    """Current retransmission timeout in seconds, including backoff."""

    pacing_rate: float
    """Estimated pacing rate in bytes per second."""

    backoff: int
    """Consecutive RTO doublings currently applied."""

    total_retransmissions: int
    """Total number of retransmitted segments since the subflow started."""

    bytes_acked: int
    """Application bytes acknowledged by the peer."""

    bytes_received: int
    """Application bytes received from the peer."""

    lost_events: int
    """Number of loss events (fast retransmits + timeouts)."""

    last_ack_time: float
    """Simulated time of the last acknowledgement that advanced ``snd_una``."""

    def as_dict(self) -> dict:
        """Plain-dict form used by the Netlink codec and by reports."""
        return {
            "state": self.state,
            "snd_una": self.snd_una,
            "snd_nxt": self.snd_nxt,
            "rcv_nxt": self.rcv_nxt,
            "snd_cwnd": self.snd_cwnd,
            "ssthresh": self.ssthresh,
            "srtt": self.srtt,
            "rttvar": self.rttvar,
            "rto": self.rto,
            "pacing_rate": self.pacing_rate,
            "backoff": self.backoff,
            "total_retransmissions": self.total_retransmissions,
            "bytes_acked": self.bytes_acked,
            "bytes_received": self.bytes_received,
            "lost_events": self.lost_events,
            "last_ack_time": self.last_ack_time,
        }
