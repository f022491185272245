"""Congestion control.

Two controllers are provided:

* :class:`RenoCongestionControl` — classic slow start / congestion
  avoidance / fast recovery, used for plain TCP subflows and as the
  building block of the coupled controller;
* :class:`LiaCongestionControl` — the coupled Linked-Increases Algorithm
  (RFC 6356) that the Linux MPTCP kernel uses by default.  Subflows of one
  MPTCP connection share a :class:`CouplingGroup`; the aggressiveness
  ``alpha`` is recomputed from the current windows and RTTs of all members
  so that the connection as a whole is fair to single-path TCP.

All windows are kept in bytes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional


class CongestionControl(ABC):
    """Interface shared by all congestion controllers.

    ``cwnd`` is the current congestion window in bytes: a plain attribute,
    read per segment by the send path and written by this module only.
    """

    def __init__(self, mss: int, initial_cwnd_segments: int, initial_ssthresh: int) -> None:
        if mss <= 0:
            raise ValueError(f"mss must be positive, got {mss!r}")
        self._mss = mss
        self.cwnd = mss * initial_cwnd_segments
        self._ssthresh = initial_ssthresh
        self.fast_recovery = False
        self._recovery_point = 0

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def mss(self) -> int:
        """Segment size used for window arithmetic."""
        return self._mss

    @property
    def ssthresh(self) -> int:
        """Current slow-start threshold in bytes."""
        return self._ssthresh

    @property
    def in_slow_start(self) -> bool:
        """True while the window is below the slow-start threshold."""
        return self.cwnd < self._ssthresh

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def on_ack(self, acked_bytes: int, flight_size: int) -> None:
        """New data was cumulatively acknowledged."""
        if acked_bytes <= 0:
            return
        if self.fast_recovery:
            # The window stays frozen at ssthresh until recovery completes.
            return
        if self.in_slow_start:
            self.cwnd += acked_bytes
        else:
            self.cwnd += self._congestion_avoidance_increase(acked_bytes)

    @abstractmethod
    def _congestion_avoidance_increase(self, acked_bytes: int) -> int:
        """Window increase (bytes) for this ACK while in congestion avoidance."""

    def on_fast_retransmit(self, flight_size: int, snd_nxt: int) -> None:
        """Three duplicate ACKs: halve the window and enter fast recovery."""
        if self.fast_recovery:
            return
        self._ssthresh = max(flight_size // 2, 2 * self._mss)
        self.cwnd = self._ssthresh
        self.fast_recovery = True
        self._recovery_point = snd_nxt

    def on_retransmission_timeout(self) -> None:
        """RTO expiry: collapse the window to one segment (RFC 5681)."""
        self._ssthresh = max(self.cwnd // 2, 2 * self._mss)
        self.cwnd = self._mss
        self.fast_recovery = False

    def on_recovery_ack(self, snd_una: int) -> bool:
        """Process a cumulative ACK while in fast recovery.

        Returns ``True`` when the ACK leaves recovery (it covers the
        recovery point).
        """
        if not self.fast_recovery:
            return False
        if snd_una >= self._recovery_point:
            self.fast_recovery = False
            return True
        return False


class RenoCongestionControl(CongestionControl):
    """NewReno-style additive increase, multiplicative decrease."""

    def _congestion_avoidance_increase(self, acked_bytes: int) -> int:
        # Standard appropriate-byte-counting increase: one MSS per window's
        # worth of acknowledged data.
        increase = (self._mss * acked_bytes) // max(self.cwnd, 1)
        return max(increase, 1)


class CouplingGroup:
    """The shared state of all LIA controllers of one MPTCP connection."""

    def __init__(self) -> None:
        self._members: list["LiaCongestionControl"] = []

    @property
    def members(self) -> list["LiaCongestionControl"]:
        """Current members (do not mutate)."""
        return self._members

    def join(self, member: "LiaCongestionControl") -> None:
        """Add a subflow's controller to the group."""
        if member not in self._members:
            self._members.append(member)

    def leave(self, member: "LiaCongestionControl") -> None:
        """Remove a subflow's controller from the group."""
        if member in self._members:
            self._members.remove(member)

    def coupling(self) -> tuple[int, float]:
        """``(total_cwnd, alpha)`` from one pass over the members.

        ``total_cwnd`` is the sum of the members' congestion windows in
        bytes.  ``alpha`` is the LIA aggressiveness factor (RFC 6356,
        equation 2),

        ``alpha = tot_cwnd * max(cwnd_i / rtt_i^2) / (sum(cwnd_i / rtt_i))^2``

        with windows expressed in MSS units; it falls back to 1.0 while RTT
        estimates are missing.
        """
        total = 0
        best = 0.0
        denominator = 0.0
        for member in self._members:
            cwnd = member.cwnd
            total += cwnd
            rtt = member._srtt
            if rtt is None or rtt <= 0:
                continue
            cwnd_segments = cwnd / member._mss
            ratio = cwnd_segments / (rtt * rtt)
            if ratio > best:
                best = ratio
            denominator += cwnd_segments / rtt
        if best <= 0.0 or denominator <= 0.0:
            return total, 1.0
        total_segments = total / max(self._members[0]._mss, 1)
        return total, total_segments * best / (denominator * denominator)

    def total_cwnd(self) -> int:
        """Sum of the members' congestion windows in bytes."""
        return self.coupling()[0]

    def alpha(self) -> float:
        """The LIA aggressiveness factor (see :meth:`coupling`)."""
        return self.coupling()[1]


class LiaCongestionControl(CongestionControl):
    """Coupled congestion control (Linked-Increases Algorithm, RFC 6356)."""

    def __init__(
        self,
        mss: int,
        initial_cwnd_segments: int,
        initial_ssthresh: int,
        group: Optional[CouplingGroup] = None,
    ) -> None:
        super().__init__(mss, initial_cwnd_segments, initial_ssthresh)
        self._group = group if group is not None else CouplingGroup()
        self._group.join(self)
        self._srtt: Optional[float] = None

    @property
    def group(self) -> CouplingGroup:
        """The coupling group this controller belongs to."""
        return self._group

    @property
    def smoothed_rtt(self) -> Optional[float]:
        """Latest smoothed RTT reported by the owning socket."""
        return self._srtt

    def observe_rtt(self, srtt: Optional[float]) -> None:
        """Called by the socket whenever its RTT estimate changes."""
        self._srtt = srtt

    def detach(self) -> None:
        """Remove this controller from its coupling group (subflow closed)."""
        self._group.leave(self)

    def _congestion_avoidance_increase(self, acked_bytes: int) -> int:
        # RFC 6356: increase per ACK is
        #   min( alpha * bytes_acked * MSS / tot_cwnd, bytes_acked * MSS / cwnd )
        # i.e. never more aggressive than regular TCP on this subflow.
        total, alpha = self._group.coupling()
        coupled = alpha * acked_bytes * self._mss / max(total, self._mss)
        uncoupled = acked_bytes * self._mss / max(self.cwnd, 1)
        return max(int(min(coupled, uncoupled)), 1)


def make_congestion_control(
    name: str,
    mss: int,
    initial_cwnd_segments: int,
    initial_ssthresh: int,
    group: Optional[CouplingGroup] = None,
) -> CongestionControl:
    """Factory used by the stack: ``"reno"`` or ``"lia"``."""
    key = name.lower()
    if key == "reno":
        return RenoCongestionControl(mss, initial_cwnd_segments, initial_ssthresh)
    if key == "lia":
        return LiaCongestionControl(mss, initial_cwnd_segments, initial_ssthresh, group)
    raise ValueError(f"unknown congestion control {name!r} (expected 'reno' or 'lia')")
