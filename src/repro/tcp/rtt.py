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
    sample): a plain attribute that only :meth:`add_sample` writes.  ``rto``
    is the current retransmission timeout in seconds, exponential backoff
    included: a plain attribute too, read on every ACK and refreshed here
    whenever the base timeout or the backoff changes.
    """

    __slots__ = ("_rto_initial", "_rto_min", "_rto_max", "srtt", "rttvar", "_rto",
                 "backoff_exponent", "samples", "min_rtt", "rto")

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
        self._update_rto()
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
        # Per ACK, so ``min``/``max``/``abs`` are spelt as compares with the
        # same tie rule: ``max(a, b)`` is ``b if b > a else a`` and
        # ``min(a, b)`` is ``b if b < a else a``.
        min_rtt = self.min_rtt
        if min_rtt is None or rtt < min_rtt:
            self.min_rtt = rtt
        srtt = self.srtt
        if srtt is None or self.rttvar is None:
            self.srtt = srtt = rtt
            self.rttvar = rttvar = rtt / 2.0
        else:
            error = srtt - rtt
            if error < 0:
                error = -error
            self.rttvar = rttvar = (1 - self.BETA) * self.rttvar + self.BETA * error
            self.srtt = srtt = (1 - self.ALPHA) * srtt + self.ALPHA * rtt
        self.backoff_exponent = 0
        # RFC 6298: RTO = SRTT + max(G, K * RTTVAR), clamped to the bounds.
        spread = self.K * rttvar
        base = srtt + (spread if spread > self.G else self.G)
        if base > self._rto_min:
            self._rto = base if base < self._rto_max else self._rto_max
        else:
            self._rto = self._rto_min if self._rto_min < self._rto_max else self._rto_max
        self._update_rto()

    def on_timeout(self) -> float:
        """Apply exponential backoff after an RTO expiry; returns the new RTO."""
        self.backoff_exponent += 1
        self._update_rto()
        return self.rto

    def reset_backoff(self) -> None:
        """Clear the backoff (forward progress was made)."""
        if self.backoff_exponent:
            self.backoff_exponent = 0
            self._update_rto()

    def _update_rto(self) -> None:
        """Refresh ``rto`` from the base timeout and the backoff."""
        # min(rto_max, scaled), with ``min``'s tie rule.
        scaled = self._rto * (2.0 ** self.backoff_exponent)
        self.rto = scaled if scaled < self._rto_max else self._rto_max

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        srtt = f"{self.srtt * 1000:.1f}ms" if self.srtt is not None else "-"
        return f"<RttEstimator srtt={srtt} rto={self.rto * 1000:.1f}ms backoff={self.backoff_exponent}>"
