"""End-to-end tests of the SMAPP architecture and the four smart controllers.

Every test drives a controller purely through the Netlink channel (via
:class:`repro.core.manager.SmappManager`), exactly as the paper's userspace
programs would run.
"""

import errno

import pytest

from tests.helpers import RecordingApp, SERVER_PORT
from repro.apps.bulk import BulkReceiverApp, BulkSenderApp
from repro.apps.streaming import StreamingSinkApp, StreamingSourceApp
from repro.core.commands import ReplyStatus
from repro.core.controller import ControllerState, SubflowController
from repro.core.controllers import (
    RefreshController,
    SmartBackupController,
    SmartStreamingController,
    UserspaceFullMeshController,
    UserspaceNdiffportsController,
)
from repro.core.events import ConnClosedEvent, ConnCreatedEvent, SubflowClosedEvent, TimeoutEvent
from repro.core.library import PathManagerLibrary
from repro.core.manager import SmappManager
from repro.core.netlink import NetlinkChannel
from repro.mptcp.stack import MptcpStack
from repro.net.addressing import FourTuple, ip
from repro.netem.scenarios import build_dual_homed, build_natted
from repro.sim.engine import Simulator


def build_smapp_rig(seed=11, rate_mbps=10.0, delay_ms=5.0, loss=(0.0, 0.0), expected=None):
    """Dual-homed rig whose client runs the full SMAPP stack."""
    sim = Simulator(seed=seed)
    scenario = build_dual_homed(sim, rate_mbps=rate_mbps, delay_ms=delay_ms, loss_percent=loss)
    server_apps = []

    def factory():
        app = BulkReceiverApp(expected_bytes=expected)
        server_apps.append(app)
        return app

    server_stack = MptcpStack(sim, scenario.server)
    server_stack.listen(SERVER_PORT, factory)
    manager = SmappManager(sim, scenario.client)
    return sim, scenario, manager, server_stack, server_apps


class TestControllerState:
    def test_views_follow_events(self):
        state = ControllerState()
        tup = FourTuple(ip("10.0.0.1"), 1000, ip("10.0.0.2"), 80)
        state.update(ConnCreatedEvent(0.1, 7, tup, 1, True))
        state.update(TimeoutEvent(0.5, 7, 1, 0.4, 2))
        view = state.connection(7)
        assert view.four_tuple == tup
        assert view.subflow(1).timeout_count == 1
        state.update(SubflowClosedEvent(0.6, 7, 1, tup, errno.ETIMEDOUT))
        assert view.subflow(1).closed
        assert view.subflow(1).close_reason == errno.ETIMEDOUT
        assert view.active_subflows == []

    def test_closed_connection_view_is_dropped_after_its_hook(self, sim):
        tup = FourTuple(ip("10.0.0.1"), 1000, ip("10.0.0.2"), 80)
        seen = []

        class Watching(SubflowController):
            def on_conn_closed(self, event):
                seen.append(self.state.connections.get(event.token))

        controller = Watching(PathManagerLibrary(NetlinkChannel(sim)))
        controller._handle_event(ConnCreatedEvent(0.1, 7, tup, 1, True))
        controller._handle_event(ConnCreatedEvent(0.2, 8, tup, 1, True))
        controller._handle_event(SubflowClosedEvent(0.5, 7, 1, tup, errno.ECONNRESET))
        controller._handle_event(ConnClosedEvent(0.6, 7))
        assert len(seen) == 1 and seen[0].token == 7 and seen[0].closed
        assert seen[0].subflow(1).closed
        assert list(controller.state.connections) == [8]
        assert controller.state.subflows_closed == 1

    def test_a_repeated_subflow_close_counts_once(self):
        state = ControllerState()
        tup = FourTuple(ip("10.0.0.1"), 1000, ip("10.0.0.2"), 80)
        for _ in range(2):
            state.update(SubflowClosedEvent(0.6, 7, 1, tup, errno.ETIMEDOUT))
        state.update(SubflowClosedEvent(0.7, 7, 2, tup, errno.ETIMEDOUT))
        assert state.subflows_closed == 2

    def test_prime_local_addresses(self):
        state = ControllerState()
        state.prime_local_addresses([("if0", ip("10.0.0.1")), ("if1", ip("10.1.0.1"))])
        assert set(state.local_addresses) == {"if0", "if1"}


class TestSmappPlumbing:
    def test_controller_sees_connection_lifecycle_events(self):
        sim, scenario, manager, server_stack, server_apps = build_smapp_rig(expected=50_000)
        controller = manager.attach_controller(SubflowController)
        sender = BulkSenderApp(50_000)
        manager.stack.connect(scenario.server_addresses[0], SERVER_PORT, listener=sender,
                              local_address=scenario.client_addresses[0])
        sim.run(until=10.0)
        assert sender.completed
        assert controller.events_seen >= 4  # created, estab, sub_estab, ... closed
        assert controller.state.connections == {}

    def test_commands_report_errors_for_unknown_connection(self):
        sim, scenario, manager, *_ = build_smapp_rig()
        replies = []
        manager.library.get_conn_info(0xDEAD, replies.append)
        sim.run(until=0.1)
        assert replies and replies[0].status == ReplyStatus.UNKNOWN_CONNECTION

    def test_get_subflow_info_via_netlink(self):
        sim, scenario, manager, server_stack, _ = build_smapp_rig(expected=100_000)
        sender = BulkSenderApp(100_000, close_when_done=False)
        conn = manager.stack.connect(scenario.server_addresses[0], SERVER_PORT, listener=sender,
                                     local_address=scenario.client_addresses[0])
        sim.run(until=2.0)
        replies = []
        manager.library.get_subflow_info(conn.local_token, conn.initial_subflow.id, replies.append)
        sim.run(until=2.1)
        assert replies and replies[0].ok
        payload = replies[0].payload
        assert payload["state"] == "ESTABLISHED"
        assert payload["pacing_rate"] > 0
        assert payload["bytes_acked"] == 100_000

    def test_create_and_remove_subflow_via_netlink(self):
        sim, scenario, manager, server_stack, _ = build_smapp_rig()
        app = RecordingApp()
        conn = manager.stack.connect(scenario.server_addresses[0], SERVER_PORT, listener=app,
                                     local_address=scenario.client_addresses[0])
        sim.run(until=1.0)
        replies = []
        manager.library.create_subflow(
            conn.local_token, scenario.client_addresses[1],
            remote_address=scenario.server_addresses[1], remote_port=SERVER_PORT,
            on_reply=replies.append,
        )
        sim.run(until=2.0)
        assert replies[0].ok
        new_id = replies[0].payload["subflow_id"]
        assert conn.subflow_by_id(new_id).is_established
        manager.library.remove_subflow(conn.local_token, new_id, on_reply=replies.append)
        sim.run(until=3.0)
        assert replies[1].ok
        assert conn.subflow_by_id(new_id).is_closed


class TestUserspaceNdiffports:
    def test_opens_requested_subflows(self):
        sim, scenario, manager, server_stack, _ = build_smapp_rig(expected=200_000)
        controller = manager.attach_controller(UserspaceNdiffportsController, subflow_count=3)
        sender = BulkSenderApp(200_000, close_when_done=False)
        conn = manager.stack.connect(scenario.server_addresses[0], SERVER_PORT, listener=sender,
                                     local_address=scenario.client_addresses[0])
        sim.run(until=5.0)
        assert controller.subflows_requested == 2
        assert len(conn.active_subflows) == 3
        ports = {flow.socket.local_port for flow in conn.active_subflows}
        assert len(ports) == 3

    def test_validation(self):
        sim, scenario, manager, *_ = build_smapp_rig()
        with pytest.raises(ValueError):
            manager.attach_controller(UserspaceNdiffportsController, subflow_count=0)


class TestSmartBackupController:
    def test_switches_to_backup_on_rto_threshold(self):
        sim, scenario, manager, server_stack, _ = build_smapp_rig(rate_mbps=2.0, expected=None)
        controller = manager.attach_controller(
            SmartBackupController,
            backup_local_address=scenario.client_addresses[1],
            backup_remote_address=scenario.server_addresses[1],
            backup_remote_port=SERVER_PORT,
            rto_threshold=1.0,
        )
        sender = BulkSenderApp(5_000_000, close_when_done=False)
        conn = manager.stack.connect(scenario.server_addresses[0], SERVER_PORT, listener=sender,
                                     local_address=scenario.client_addresses[0])
        sim.schedule(1.0, scenario.path_links[0].set_loss_rate, 0.30)
        sim.run(until=8.0)
        assert controller.switches == 1
        assert conn.initial_subflow.is_closed
        backup_flows = [f for f in conn.subflows if f.socket.local_address == scenario.client_addresses[1]]
        assert backup_flows and backup_flows[0].bytes_scheduled > 0
        # Data keeps flowing after the switch.
        assert conn.data_una > conn.initial_subflow.bytes_scheduled // 2

    def test_no_switch_without_trouble(self):
        sim, scenario, manager, server_stack, _ = build_smapp_rig(expected=500_000)
        controller = manager.attach_controller(
            SmartBackupController,
            backup_local_address=scenario.client_addresses[1],
            rto_threshold=1.0,
        )
        sender = BulkSenderApp(500_000)
        manager.stack.connect(scenario.server_addresses[0], SERVER_PORT, listener=sender,
                              local_address=scenario.client_addresses[0])
        sim.run(until=10.0)
        assert controller.switches == 0
        assert sender.completed


class TestSmartStreamingController:
    def test_opens_second_path_under_loss(self):
        sim = Simulator(seed=21)
        scenario = build_dual_homed(sim, rate_mbps=5.0, delay_ms=10.0, loss_percent=(30.0, 0.0))
        sinks = []
        server_stack = MptcpStack(sim, scenario.server)
        server_stack.listen(SERVER_PORT, lambda: sinks.append(StreamingSinkApp()) or sinks[-1])
        manager = SmappManager(sim, scenario.client)
        controller = manager.attach_controller(
            SmartStreamingController,
            secondary_local_address=scenario.client_addresses[1],
            secondary_remote_address=scenario.server_addresses[1],
            secondary_remote_port=SERVER_PORT,
        )
        source = StreamingSourceApp(block_count=15)
        conn = manager.stack.connect(scenario.server_addresses[0], SERVER_PORT, listener=source,
                                     local_address=scenario.client_addresses[0])
        sim.run(until=40.0)
        assert len(conn.subflows) >= 2
        assert controller.progress_checks > 0
        delays = sinks[0].completion_times()
        assert len(delays) == 15
        assert sum(1 for d in delays if d > 1.0) <= 2

    def test_quiet_path_keeps_single_subflow(self):
        sim = Simulator(seed=22)
        scenario = build_dual_homed(sim, rate_mbps=5.0, delay_ms=10.0)
        sinks = []
        server_stack = MptcpStack(sim, scenario.server)
        server_stack.listen(SERVER_PORT, lambda: sinks.append(StreamingSinkApp()) or sinks[-1])
        manager = SmappManager(sim, scenario.client)
        controller = manager.attach_controller(
            SmartStreamingController,
            secondary_local_address=scenario.client_addresses[1],
        )
        source = StreamingSourceApp(block_count=10)
        conn = manager.stack.connect(scenario.server_addresses[0], SERVER_PORT, listener=source,
                                     local_address=scenario.client_addresses[0])
        sim.run(until=30.0)
        assert controller.slow_blocks_detected == 0
        assert len(conn.subflows) == 1


class TestUserspaceFullMeshController:
    def test_builds_full_mesh(self):
        sim, scenario, manager, server_stack, _ = build_smapp_rig()
        controller = manager.attach_controller(UserspaceFullMeshController)
        app = RecordingApp()
        conn = manager.stack.connect(scenario.server_addresses[0], SERVER_PORT, listener=app,
                                     local_address=scenario.client_addresses[0])
        sim.run(until=3.0)
        assert len(conn.active_subflows) == 4

    def test_reestablishes_after_rst(self):
        sim = Simulator(seed=31)
        scenario = build_natted(sim, nat_idle_timeout=20.0, nat_sends_rst=True)
        from repro.apps.longlived import LongLivedApp, LongLivedPeer

        peers = []
        server_stack = MptcpStack(sim, scenario.server)
        server_stack.listen(SERVER_PORT, lambda: peers.append(LongLivedPeer()) or peers[-1])
        manager = SmappManager(sim, scenario.client)
        controller = manager.attach_controller(UserspaceFullMeshController)
        app = LongLivedApp(message_bytes=300, message_interval=60.0)
        manager.stack.connect(scenario.server_addresses[0], SERVER_PORT, listener=app,
                              local_address=scenario.client_addresses[0])
        sim.run(until=200.0)
        # Messages every 60 s with a 20 s NAT timeout: the NAT-side subflow
        # keeps dying and the controller keeps repairing it.
        assert controller.reestablishments >= 1
        assert app.delivered_messages == len(app.messages)
        assert app.delivered_messages >= 3


    def test_a_closed_connection_leaves_no_requested_pair(self):
        """In-flight create requests are kept per token: a closing
        connection drops its own and leaves a live connection's alone."""
        sim, scenario, manager, server_stack, _ = build_smapp_rig()
        controller = manager.attach_controller(UserspaceFullMeshController)
        short = manager.stack.connect(scenario.server_addresses[0], SERVER_PORT,
                                      listener=BulkSenderApp(20_000),
                                      local_address=scenario.client_addresses[0])
        sim.run(until=0.2)
        long = manager.stack.connect(scenario.server_addresses[0], SERVER_PORT,
                                     listener=RecordingApp(),
                                     local_address=scenario.client_addresses[0])
        sim.run(until=0.4)
        assert controller._requested[short.local_token]
        assert controller._requested[long.local_token]
        sim.run(until=5.0)
        assert short.closed and not long.closed
        assert short.local_token not in controller._requested
        assert controller._requested[long.local_token]


class TestRefreshController:
    def test_replaces_slowest_subflow(self):
        from repro.netem.scenarios import build_ecmp

        sim = Simulator(seed=41)
        scenario = build_ecmp(sim)
        receivers = []
        server_stack = MptcpStack(sim, scenario.server)
        server_stack.listen(SERVER_PORT, lambda: receivers.append(BulkReceiverApp()) or receivers[-1])
        manager = SmappManager(sim, scenario.client)
        controller = manager.attach_controller(RefreshController, subflow_count=5, refresh_interval=2.5)
        sender = BulkSenderApp(4_000_000, close_when_done=False)
        conn = manager.stack.connect(scenario.server_addresses[0], SERVER_PORT, listener=sender)
        sim.run(until=12.0)
        assert len(conn.subflows) >= 5
        assert controller.refresh_rounds >= 2
        assert sender.completed

    def test_validation(self):
        sim, scenario, manager, *_ = build_smapp_rig()
        with pytest.raises(ValueError):
            manager.attach_controller(RefreshController, subflow_count=1)
