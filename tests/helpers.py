"""Reusable builders for integration-style tests.

Most MPTCP and controller tests need the same scaffolding: a dual-homed
client and server with stacks installed and a simple application pair.
These helpers keep the individual tests short and focused on behaviour.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Optional

from repro.apps.bulk import BulkReceiverApp, BulkSenderApp
from repro.core.manager import SmappManager
from repro.mptcp.config import MptcpConfig
from repro.mptcp.connection import ConnectionListener, MptcpConnection
from repro.mptcp.path_manager import PathManager
from repro.mptcp.stack import MptcpStack
from repro.netem.scenarios import Scenario, build_dual_homed
from repro.sim.engine import Simulator

SERVER_PORT = 4000


def child_env() -> dict:
    """The environment of a fresh ``python`` child that imports what this process does."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, sys.path)))


class RecordingApp(ConnectionListener):
    """A listener that records every callback (useful in many tests)."""

    def __init__(self) -> None:
        self.established = 0
        self.data_bytes = 0
        self.data_acked: list[int] = []
        self.finished = 0
        self.closed = 0
        self.connection: Optional[MptcpConnection] = None

    def on_connection_established(self, conn: MptcpConnection) -> None:
        self.connection = conn
        self.established += 1

    def on_data(self, conn: MptcpConnection, new_bytes: int) -> None:
        self.data_bytes += new_bytes

    def on_data_acked(self, conn: MptcpConnection, data_una: int) -> None:
        self.data_acked.append(data_una)

    def on_connection_finished(self, conn: MptcpConnection) -> None:
        self.finished += 1
        conn.close()

    def on_connection_closed(self, conn: MptcpConnection) -> None:
        self.closed += 1


@dataclass
class DualHomedRig:
    """A dual-homed client/server pair with stacks installed."""

    sim: Simulator
    scenario: Scenario
    client_stack: MptcpStack
    server_stack: MptcpStack
    server_apps: list = field(default_factory=list)
    smapp: Optional[SmappManager] = None

    @property
    def client_addresses(self):
        """Client-side addresses (path 0, path 1)."""
        return self.scenario.client_addresses

    @property
    def server_addresses(self):
        """Server-side addresses (path 0, path 1)."""
        return self.scenario.server_addresses

    def connect_bulk(self, total_bytes: int, close_when_done: bool = True) -> tuple[BulkSenderApp, MptcpConnection]:
        """Open a connection with a bulk sender on the client side."""
        sender = BulkSenderApp(total_bytes, close_when_done=close_when_done)
        conn = self.client_stack.connect(
            self.server_addresses[0],
            SERVER_PORT,
            listener=sender,
            local_address=self.client_addresses[0],
        )
        return sender, conn

    def connect_recording(self) -> tuple[RecordingApp, MptcpConnection]:
        """Open a connection with a recording listener on the client side."""
        app = RecordingApp()
        conn = self.client_stack.connect(
            self.server_addresses[0],
            SERVER_PORT,
            listener=app,
            local_address=self.client_addresses[0],
        )
        return app, conn


def build_dual_homed_rig(
    seed: int = 7,
    rate_mbps: float = 10.0,
    delay_ms: float = 5.0,
    loss_percent: tuple[float, float] = (0.0, 0.0),
    client_pm: Optional[PathManager] = None,
    server_listener_factory=None,
    use_smapp: bool = False,
    expected_bytes: Optional[int] = None,
    config: Optional[MptcpConfig] = None,
) -> DualHomedRig:
    """Build the standard two-path test rig.

    ``server_listener_factory`` defaults to bulk receivers that also close
    the connection when the peer finishes.
    """
    sim = Simulator(seed=seed)
    scenario = build_dual_homed(sim, rate_mbps=rate_mbps, delay_ms=delay_ms, loss_percent=loss_percent)

    server_apps: list = []

    def default_factory():
        app = BulkReceiverApp(expected_bytes=expected_bytes)
        server_apps.append(app)
        return app

    factory = server_listener_factory
    if factory is None:
        factory = default_factory
    else:
        original = factory

        def wrapping_factory():
            app = original()
            server_apps.append(app)
            return app

        factory = wrapping_factory

    server_stack = MptcpStack(sim, scenario.server, config=config)
    server_stack.listen(SERVER_PORT, factory)

    smapp = None
    if use_smapp:
        smapp = SmappManager(sim, scenario.client, config=config)
        client_stack = smapp.stack
    else:
        client_stack = MptcpStack(sim, scenario.client, config=config, path_manager=client_pm)

    return DualHomedRig(
        sim=sim,
        scenario=scenario,
        client_stack=client_stack,
        server_stack=server_stack,
        server_apps=server_apps,
        smapp=smapp,
    )
