"""RTT estimation and retransmission-timeout computation (RFC 6298).

The ``timeout`` Netlink event of the paper reports "the current value of
the retransmission timer"; the smarter-backup controller (§4.2) compares it
against a threshold and the smarter-streaming controller (§4.3) closes
subflows whose RTO exceeds one second.  Getting the estimator and the
exponential backoff right is therefore central to reproducing Figures 2a
and 2b.
"""

from __future__ import annotations

from typing import Optional


class RttEstimator:
    """Jacobson/Karels smoothed RTT with RFC 6298 RTO computation.

    ``srtt`` is the smoothed RTT in seconds (``None`` before the first
    sample): a plain attribute that only :meth:`add_sample` writes.
    """

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0
    K = 4.0
    #: Clock granularity (seconds).
    G = 0.001

    def __init__(
        self,
        rto_initial: float = 1.0,
        rto_min: float = 0.2,
        rto_max: float = 120.0,
    ) -> None:
        if rto_min <= 0 or rto_max < rto_min:
            raise ValueError("require 0 < rto_min <= rto_max")
        self._rto_initial = rto_initial
        self._rto_min = rto_min
        self._rto_max = rto_max
        self.srtt: Optional[float] = None
        #: RTT variance in seconds (``None`` before the first sample).
        self.rttvar: Optional[float] = None
        self._rto = rto_initial
        #: Number of consecutive RTO doublings currently applied.
        self.backoff_exponent = 0
        #: Number of samples incorporated.
        self.samples = 0
        #: Smallest RTT observed so far.
        self.min_rtt: Optional[float] = None

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def add_sample(self, rtt: float) -> None:
        """Incorporate a new RTT measurement (seconds).

        Following Karn's algorithm the caller must only feed samples from
        segments that were *not* retransmitted.  A new sample clears any
        exponential backoff, as a successful round trip proves the path is
        alive again.
        """
        if rtt < 0:
            raise ValueError(f"RTT cannot be negative, got {rtt!r}")
        self.samples += 1
        self.min_rtt = rtt if self.min_rtt is None else min(self.min_rtt, rtt)
        if self.srtt is None or self.rttvar is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(self.srtt - rtt)
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        self.backoff_exponent = 0
        self._recompute()

    def on_timeout(self) -> float:
        """Apply exponential backoff after an RTO expiry; returns the new RTO."""
        self.backoff_exponent += 1
        return self.rto

    def reset_backoff(self) -> None:
        """Clear the backoff (forward progress was made)."""
        self.backoff_exponent = 0

    def _recompute(self) -> None:
        assert self.srtt is not None and self.rttvar is not None
        base = self.srtt + max(self.G, self.K * self.rttvar)
        self._rto = min(self._rto_max, max(self._rto_min, base))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def rto(self) -> float:
        """Current retransmission timeout, including exponential backoff."""
        return min(self._rto_max, self._rto * (2.0 ** self.backoff_exponent))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        srtt = f"{self.srtt * 1000:.1f}ms" if self.srtt is not None else "-"
        return f"<RttEstimator srtt={srtt} rto={self.rto * 1000:.1f}ms backoff={self.backoff_exponent}>"
