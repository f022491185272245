"""Latency models.

Several parts of the reproduction need a "how long does this step take"
distribution rather than a fixed constant:

* the Netlink user/kernel crossing (tens of microseconds, right-skewed),
* in-kernel path-manager processing (a few microseconds),
* scheduling jitter of the userspace controller process, which grows when
  the CPU is stressed (the §4.5 experiment).

A :class:`LatencyModel` turns a :class:`~repro.sim.randomness.RandomSource`
into such a draw.  Models are composable: :class:`ShiftedLatency` adds a
fixed offset to any base model, which is how "stressed CPU" scenarios are
expressed.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.sim.randomness import RandomSource


class LatencyModel(ABC):
    """Base class for latency distributions (all values in seconds)."""

    @abstractmethod
    def sample(self, rng: RandomSource) -> float:
        """Draw one latency value, in seconds (never negative)."""

    @abstractmethod
    def mean(self) -> float:
        """Analytical (or configured) mean of the distribution, in seconds."""

    def __call__(self, rng: RandomSource) -> float:
        return self.sample(rng)


class ConstantLatency(LatencyModel):
    """Always the same latency.  ``ConstantLatency(0)`` models a free step."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"latency cannot be negative, got {value!r}")
        self._value = float(value)

    def sample(self, rng: RandomSource) -> float:
        return self._value

    def mean(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"ConstantLatency({self._value!r})"


class NormalLatency(LatencyModel):
    """Gaussian latency truncated at a floor (default: never below zero)."""

    def __init__(self, mean: float, stddev: float, floor: float = 0.0) -> None:
        if mean < 0 or stddev < 0 or floor < 0:
            raise ValueError("mean, stddev and floor must be non-negative")
        self._mean = float(mean)
        self._stddev = float(stddev)
        self._floor = float(floor)

    def sample(self, rng: RandomSource) -> float:
        return max(self._floor, rng.gauss(self._mean, self._stddev))

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"NormalLatency(mean={self._mean!r}, stddev={self._stddev!r})"


class LogNormalLatency(LatencyModel):
    """Right-skewed latency, parameterised by its *linear-space* mean.

    OS-level latencies (syscall handling, IPC wake-ups) are well described by
    a log-normal body with a long right tail.  The constructor takes the
    desired mean and the sigma of the underlying normal so that experiment
    code can say "about 20 microseconds, skewed".
    """

    def __init__(self, mean: float, sigma: float = 0.5, floor: float = 0.0) -> None:
        if mean <= 0:
            raise ValueError(f"log-normal mean must be positive, got {mean!r}")
        if sigma <= 0:
            raise ValueError(f"log-normal sigma must be positive, got {sigma!r}")
        self._target_mean = float(mean)
        self._sigma = float(sigma)
        self._floor = float(floor)
        # mean of lognormal = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2
        self._mu = math.log(mean) - (sigma * sigma) / 2.0

    def sample(self, rng: RandomSource) -> float:
        return max(self._floor, rng.lognormal(self._mu, self._sigma))

    def mean(self) -> float:
        return self._target_mean

    def __repr__(self) -> str:
        return f"LogNormalLatency(mean={self._target_mean!r}, sigma={self._sigma!r})"


class ShiftedLatency(LatencyModel):
    """A base model plus a constant shift.

    Used to express "the same processing path, but slower by X" — e.g. the
    userspace path manager adds a Netlink round trip on top of the kernel
    processing time, or a stressed CPU adds scheduling delay to both.
    """

    def __init__(self, base: LatencyModel, shift: float) -> None:
        if shift < 0:
            raise ValueError(f"shift cannot be negative, got {shift!r}")
        #: The wrapped base model.
        self.base = base
        #: The constant additional latency, in seconds.
        self.shift = float(shift)

    def sample(self, rng: RandomSource) -> float:
        return self.base.sample(rng) + self.shift

    def mean(self) -> float:
        return self.base.mean() + self.shift

    def __repr__(self) -> str:
        return f"ShiftedLatency({self.base!r}, shift={self.shift!r})"
