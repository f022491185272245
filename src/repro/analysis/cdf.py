"""Empirical cumulative distribution functions.

Every figure in the paper's evaluation except 2a is a CDF; this class is
the common representation the experiments and benchmarks print.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable


class Cdf:
    """An empirical CDF over a set of samples."""

    def __init__(self, samples: Iterable[float], label: str = "") -> None:
        self._samples = sorted(float(sample) for sample in samples)
        self.label = label

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def samples(self) -> list[float]:
        """The sorted samples (do not mutate)."""
        return self._samples

    def __len__(self) -> int:
        return len(self._samples)

    def __bool__(self) -> bool:
        return bool(self._samples)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def probability_below(self, value: float) -> float:
        """P(X <= value)."""
        if not self._samples:
            raise ValueError("cannot evaluate an empty CDF")
        return bisect_right(self._samples, value) / len(self._samples)

    def percentile(self, fraction: float) -> float:
        """The value below which ``fraction`` of the samples fall.

        Uses the nearest-rank definition; ``fraction`` is in ``[0, 1]``.
        Unlike the interpolating :func:`repro.analysis.stats.percentile`, the
        figure reports that print it always show a delay that was observed.
        """
        if not self._samples:
            raise ValueError("cannot evaluate an empty CDF")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be within [0, 1], got {fraction!r}")
        if fraction == 0.0:
            return self._samples[0]
        rank = max(1, int(round(fraction * len(self._samples) + 0.5)) - 1)
        return self._samples[min(rank, len(self._samples) - 1)]

    @property
    def median(self) -> float:
        """The 50th percentile."""
        return self.percentile(0.5)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        if not self._samples:
            raise ValueError("cannot evaluate an empty CDF")
        return sum(self._samples) / len(self._samples)

    @property
    def minimum(self) -> float:
        """Smallest sample."""
        if not self._samples:
            raise ValueError("cannot evaluate an empty CDF")
        return self._samples[0]

    @property
    def maximum(self) -> float:
        """Largest sample."""
        if not self._samples:
            raise ValueError("cannot evaluate an empty CDF")
        return self._samples[-1]

    # ------------------------------------------------------------------
    # exporting
    # ------------------------------------------------------------------
    def points(self) -> list[tuple[float, float]]:
        """The staircase points (value, cumulative fraction)."""
        total = len(self._samples)
        return [(value, (index + 1) / total) for index, value in enumerate(self._samples)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._samples:
            return f"<Cdf {self.label or 'empty'} n=0>"
        return (
            f"<Cdf {self.label} n={len(self)} median={self.median:.4f} "
            f"p95={self.percentile(0.95):.4f}>"
        )
