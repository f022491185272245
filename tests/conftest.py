"""Shared pytest fixtures.

The repository is importable either through ``pip install -e .`` or, when
editable installs are unavailable, by putting ``src`` on ``sys.path`` here.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.sim import Simulator  # noqa: E402  (import after path setup)


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=42)


@pytest.fixture
def make_sim():
    """Factory fixture for simulators with explicit seeds."""

    def factory(seed: int = 42) -> Simulator:
        return Simulator(seed=seed)

    return factory


@pytest.fixture(scope="session")
def fig2c():
    """The committed ten-seed ``fig2c`` grid, at 10 % of the paper's
    transfer, shared by every Figure 2c test.  Its transfers outlast the
    refresh controller's first 2.5 s round, which a 4 % transfer does not."""
    from repro.experiments.fig2c_loadbalance import run_fig2c

    return run_fig2c(seed=1, seeds=10, scale=0.1)
