"""Seeded randomness for simulations.

All stochastic behaviour in the reproduction (link loss draws, ephemeral
port selection, Netlink latency jitter, application think times) flows
through a :class:`RandomSource`.  Components obtain *named sub-streams* so
that adding a new consumer of randomness does not perturb the draws seen by
unrelated components — a property that keeps regression tests stable.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from functools import cached_property
from typing import Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, *components: object) -> int:
    """Derive a child seed from ``root_seed`` and a label path.

    The sweep engine seeds every campaign cell with
    ``derive_seed(campaign_seed, experiment, scheduler, ...)`` so that a
    cell's randomness depends only on the campaign seed and the cell's own
    coordinates — never on worker count, scheduling order, or which other
    cells exist.  SHA-256 (rather than ``hash``) keeps the derivation stable
    across processes and Python versions.

    Returns a non-negative 63-bit integer.
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode("utf-8"))
    for component in components:
        digest.update(b"\x1f")
        digest.update(str(component).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") & 0x7FFFFFFFFFFFFFFF


class RandomSource:
    """A seeded random stream with derivable, named sub-streams."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._children: dict[str, RandomSource] = {}

    @cached_property
    def _rng(self) -> random.Random:
        """Built (seeded) by the first draw: most named streams never draw one."""
        return random.Random(self._seed)

    @property
    def seed(self) -> int:
        """The seed this source was created with."""
        return self._seed

    def substream(self, name: str) -> "RandomSource":
        """Return a child stream derived deterministically from ``name``.

        Repeated calls with the same name return the same child object so
        that state is shared between callers that name the same stream.
        """
        child = self._children.get(name)
        if child is None:
            derived = (self._seed * 0x9E3779B1 + zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF
            child = RandomSource(derived)
            self._children[name] = child
        return child

    # ------------------------------------------------------------------
    # draw helpers (thin wrappers so callers never touch `random` directly)
    # ------------------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in ``[low, high)``."""
        return self._rng.uniform(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` (both inclusive)."""
        return self._rng.randint(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponentially distributed value with the given rate."""
        return self._rng.expovariate(rate)

    def gauss(self, mean: float, stddev: float) -> float:
        """Normally distributed value."""
        return self._rng.gauss(mean, stddev)

    def lognormal(self, mu: float, sigma: float) -> float:
        """Log-normally distributed value."""
        return self._rng.lognormvariate(mu, sigma)

    def choice(self, options: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        return self._rng.choice(options)

    def sample(self, options: Sequence[T], count: int) -> list[T]:
        """Sample ``count`` distinct elements."""
        return self._rng.sample(options, count)

    def shuffle(self, items: list) -> None:
        """Shuffle a list in place."""
        self._rng.shuffle(items)

    def chance(self, probability: float) -> bool:
        """Return True with the given probability.

        Probabilities outside ``[0, 1]`` are clamped: a loss rate of 0 never
        fires and a rate of 1 (or more) always fires.
        """
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def ephemeral_port(self, low: int = 32768, high: int = 60999) -> int:
        """Draw an ephemeral source port from the Linux default range."""
        return self._rng.randint(low, high)
