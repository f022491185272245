"""Workload composition primitives.

A :class:`Workload` is the application half of an experiment: it knows how
to install the server-side listener, how to start the client-side driver,
and how to turn the finished run into a metrics dict.  The
:class:`~repro.workloads.harness.Harness` composes a workload with a netem
scenario, a client stack (path manager or userspace controller) and a set
of metric probes into one deterministic simulation run — the same
composition whether the run backs a paper figure, a CLI preset or a sweep
cell.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import SubflowController
    from repro.core.manager import SmappManager
    from repro.mptcp.config import MptcpConfig
    from repro.mptcp.connection import ConnectionListener, MptcpConnection
    from repro.mptcp.stack import MptcpStack
    from repro.sim.engine import Simulator
    from repro.workloads.harness import HarnessRun


@dataclass
class ClientSetup:
    """The client-side transport assembly a controller entry builds.

    Plain path managers only fill ``stack``; SMAPP-style userspace
    controllers also expose the manager and the controller object so figure
    presets can read controller state (switch times, reestablishment
    counts) after the run.
    """

    stack: MptcpStack
    manager: Optional["SmappManager"] = None
    controller: Optional["SubflowController"] = None


@dataclass
class HarnessContext:
    """Everything a registry entry needs while the run is being assembled."""

    sim: Simulator
    scenario: Any
    config: MptcpConfig
    params: dict[str, Any]
    server_port: int


class Workload(ABC):
    """One client/server application pair, composable with any scenario.

    Concrete workloads read their knobs from ``ctx.params`` (merged over
    :attr:`default_params`), so the same workload runs under a figure
    preset's hand-picked parameters and under a sweep grid's shared params
    dict without any re-wiring.
    """

    name = "abstract"
    default_params: Mapping[str, Any] = {}
    #: Whether the harness may start more than one concurrent client
    #: connection of this workload in a single cell (the ``connections``
    #: sweep axis).  Workloads that keep per-run state on ``self`` or that
    #: model a single global session should set this to ``False``.
    supports_connections = True

    @abstractmethod
    def server_app(self, ctx: HarnessContext) -> ConnectionListener:
        """Build one server-side listener (called per accepted connection)."""

    @abstractmethod
    def start(
        self, ctx: HarnessContext, stack: MptcpStack
    ) -> tuple[Any, Optional[MptcpConnection]]:
        """Connect the client side and return ``(driver, connection)``.

        ``driver`` is whatever object carries the client-side measurements;
        ``connection`` is the primary MPTCP connection when the workload
        has exactly one (``None`` for connection-per-request workloads).
        """

    @abstractmethod
    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        """Workload-specific metrics of a finished run."""

    # ------------------------------------------------------------------
    # accessors the generic probes build on (override where meaningful)
    # ------------------------------------------------------------------
    def delivered_bytes(self, run: "HarnessRun") -> Optional[int]:
        """Application payload bytes delivered end to end (``None`` if unknown)."""
        return None

    def app_latencies(self, run: "HarnessRun") -> list[float]:
        """The workload's per-unit latency samples (blocks, requests, ...)."""
        samples: list[float] = []
        for driver in run.drivers:
            if driver is not None:
                samples.extend(self.driver_latencies(run, driver))
        return samples

    def elapsed(self, run: "HarnessRun") -> float:
        """The time base for goodput (defaults to the run horizon)."""
        started = [driver for driver in run.drivers if driver is not None]
        if started:
            return max(self.driver_elapsed(run, driver) for driver in started)
        return run.spec.horizon

    # ------------------------------------------------------------------
    # per-connection accessors (the connections axis builds on these)
    # ------------------------------------------------------------------
    def driver_delivered_bytes(self, run: "HarnessRun", driver: Any) -> Optional[int]:
        """Payload bytes one client driver delivered (``None`` if unknown)."""
        return None

    def driver_latencies(self, run: "HarnessRun", driver: Any) -> list[float]:
        """One driver's per-unit latency samples."""
        return []

    def driver_elapsed(self, run: "HarnessRun", driver: Any) -> float:
        """One driver's goodput time base (defaults to the run horizon)."""
        return run.spec.horizon

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.name}>"
