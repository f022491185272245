"""Integration tests for MPTCP connections, path managers and the stack."""

import errno

import pytest

from tests.helpers import RecordingApp, SERVER_PORT, build_dual_homed_rig
from repro.mptcp.path_manager import FullMeshPathManager, NdiffportsPathManager, PassivePathManager
from repro.mptcp.subflow import SubflowOrigin


class TestConnectionEstablishment:
    def test_initial_subflow_handshake(self):
        rig = build_dual_homed_rig()
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        assert conn.established
        assert app.established == 1
        assert conn.initial_subflow.is_established
        assert len(rig.server_stack.connections) == 1

    def test_tokens_are_exchanged(self):
        rig = build_dual_homed_rig()
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        server_conn = rig.server_stack.connections[0]
        assert conn.remote_token == server_conn.local_token
        assert server_conn.remote_token == conn.local_token

    def test_server_learns_connection_by_token(self):
        rig = build_dual_homed_rig()
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        server_conn = rig.server_stack.connections[0]
        assert rig.server_stack.connection_by_token(server_conn.local_token) is server_conn

    def test_connect_to_closed_port_fails(self):
        rig = build_dual_homed_rig()
        app = RecordingApp()
        conn = rig.client_stack.connect(rig.server_addresses[0], 9999, listener=app)
        rig.sim.run(until=2.0)
        assert not conn.established
        assert conn.initial_subflow.is_closed

    def test_server_announces_second_address(self):
        rig = build_dual_homed_rig()
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        assert rig.server_addresses[1] in [addr for addr, _ in conn.remote_addresses.values()]


class TestDataTransferAndTeardown:
    def test_bulk_transfer_and_clean_close(self):
        rig = build_dual_homed_rig(expected_bytes=300_000)
        sender, conn = rig.connect_bulk(300_000)
        rig.sim.run(until=20.0)
        assert sender.completed
        assert rig.server_apps[0].received_bytes == 300_000
        assert conn.closed
        assert rig.client_stack.connections == []
        assert rig.server_stack.connections == []

    def test_transfer_uses_multiple_subflows_with_fullmesh(self):
        rig = build_dual_homed_rig(client_pm=FullMeshPathManager(), expected_bytes=2_000_000)
        sender, conn = rig.connect_bulk(2_000_000)
        rig.sim.run(until=30.0)
        assert sender.completed
        used = [flow for flow in conn.subflows if flow.bytes_scheduled > 0]
        assert len(used) >= 2

    def test_aggregate_throughput_exceeds_single_path(self):
        rig = build_dual_homed_rig(client_pm=FullMeshPathManager(), rate_mbps=5.0, expected_bytes=2_000_000)
        sender, conn = rig.connect_bulk(2_000_000)
        rig.sim.run(until=30.0)
        assert sender.completed
        # One 5 Mbps path would need at least 3.2 s.
        assert sender.completion_time < 3.2

    def test_server_side_counts_match(self):
        rig = build_dual_homed_rig(expected_bytes=123_456)
        sender, conn = rig.connect_bulk(123_456)
        rig.sim.run(until=20.0)
        assert rig.server_apps[0].received_bytes == 123_456

    def test_data_ack_progress_reported(self):
        rig = build_dual_homed_rig()
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        conn.send(10_000)
        rig.sim.run(until=2.0)
        assert app.data_acked and app.data_acked[-1] == 10_000
        assert conn.data_una == 10_000

    def test_send_on_closing_connection_rejected(self):
        rig = build_dual_homed_rig()
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        conn.close()
        with pytest.raises(RuntimeError):
            conn.send(100)

    def test_abort_resets_all_subflows(self):
        rig = build_dual_homed_rig(client_pm=FullMeshPathManager())
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        conn.abort()
        rig.sim.run(until=2.0)
        assert conn.closed
        assert all(flow.is_closed for flow in conn.subflows)
        assert rig.server_stack.connections == []


class TestSubflowManagement:
    def test_create_subflow_on_second_path(self):
        rig = build_dual_homed_rig()
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        flow = conn.create_subflow(
            rig.client_addresses[1],
            remote_address=rig.server_addresses[1],
            remote_port=SERVER_PORT,
        )
        rig.sim.run(until=2.0)
        assert flow is not None
        assert flow.is_established
        assert flow.origin is SubflowOrigin.CONTROLLER
        server_conn = rig.server_stack.connections[0]
        assert len(server_conn.subflows) == 2

    def test_closed_subflows_are_compacted_out_of_the_live_list(self):
        rig = build_dual_homed_rig(client_pm=FullMeshPathManager())
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        created = len(conn.subflows)
        assert created >= 2
        extra = [flow for flow in conn.subflows if not flow.is_initial][0]
        conn.remove_subflow(extra, reset=True)
        rig.sim.run(until=2.0)
        # The live list shrank; the history (and the created-count) did not.
        assert extra not in conn.live_subflows
        assert extra in conn.subflows
        assert len(conn.subflows) == conn.subflows_created == created
        assert all(not flow.is_closed for flow in conn.live_subflows)

    def test_subflow_by_id_stays_stable_across_compaction(self):
        rig = build_dual_homed_rig(client_pm=FullMeshPathManager())
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        extra = [flow for flow in conn.subflows if not flow.is_initial][0]
        extra_id = extra.id
        conn.remove_subflow(extra, reset=True)
        rig.sim.run(until=2.0)
        # Ids are never reused and closed subflows stay resolvable, so
        # trace post-processing can keep referring to departed subflows.
        assert conn.subflow_by_id(extra_id) is extra
        replacement = conn.create_subflow(
            rig.client_addresses[1],
            remote_address=rig.server_addresses[1],
            remote_port=SERVER_PORT,
        )
        rig.sim.run(until=3.0)
        assert replacement is not None and replacement.id != extra_id

    def test_churn_does_not_grow_the_live_list(self):
        rig = build_dual_homed_rig()
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        for round_index in range(5):
            flow = conn.create_subflow(
                rig.client_addresses[1],
                remote_address=rig.server_addresses[1],
                remote_port=SERVER_PORT,
            )
            rig.sim.run(until=rig.sim.now + 0.5)
            assert flow is not None and flow.is_established
            conn.remove_subflow(flow, reset=True)
            rig.sim.run(until=rig.sim.now + 0.5)
        # 1 initial + 5 churned in history, but only the initial stays live.
        assert conn.subflows_created == 6
        assert len(conn.live_subflows) == 1
        assert conn.live_subflows[0].is_initial

    def test_more_than_255_subflows_over_a_connection_lifetime(self):
        """MP_JOIN's address id is an 8-bit wire field, the subflow id is not:
        a long-lived connection whose controller keeps refreshing subflows
        (longlived/natted/refresh past ~2000 s) must survive its 256th."""
        rig = build_dual_homed_rig()
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        for _ in range(300):
            flow = conn.create_subflow(
                rig.client_addresses[1],
                remote_address=rig.server_addresses[1],
                remote_port=SERVER_PORT,
            )
            rig.sim.run(until=rig.sim.now + 0.1)
            assert flow is not None and flow.is_established
            conn.remove_subflow(flow, reset=True)
            rig.sim.run(until=rig.sim.now + 0.1)
        assert flow.id == 301
        assert conn.subflows_created == 301
        server_conn = rig.server_apps[0].connection
        assert server_conn.subflows_created == 301
        assert not conn.closed and len(conn.live_subflows) == 1

    def test_create_subflow_before_established_returns_none(self):
        rig = build_dual_homed_rig()
        app, conn = rig.connect_recording()
        assert conn.create_subflow(rig.client_addresses[1]) is None

    def test_remove_subflow_with_reset(self):
        rig = build_dual_homed_rig(client_pm=FullMeshPathManager())
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        extra = [flow for flow in conn.subflows if not flow.is_initial][0]
        conn.remove_subflow(extra, reset=True)
        rig.sim.run(until=2.0)
        assert extra.is_closed
        assert extra.close_reason == errno.ECONNRESET
        server_conn = rig.server_stack.connections[0]
        assert sum(1 for flow in server_conn.subflows if flow.is_closed) == 1

    def test_max_subflow_cap(self):
        from repro.mptcp.config import MptcpConfig

        rig = build_dual_homed_rig(config=MptcpConfig(max_subflows=2))
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        first = conn.create_subflow(rig.client_addresses[1])
        rig.sim.run(until=2.0)
        second = conn.create_subflow(rig.client_addresses[0])
        assert first is not None
        assert second is None

    def test_backup_subflow_not_used_while_regular_alive(self):
        rig = build_dual_homed_rig(expected_bytes=500_000)
        sender, conn = rig.connect_bulk(500_000, close_when_done=False)
        rig.sim.run(until=0.5)
        backup = conn.create_subflow(
            rig.client_addresses[1],
            remote_address=rig.server_addresses[1],
            remote_port=SERVER_PORT,
            backup=True,
        )
        rig.sim.run(until=10.0)
        assert sender.completed
        assert backup.bytes_scheduled == 0
        assert conn.initial_subflow.bytes_scheduled > 0

    def test_backup_takes_over_when_regular_dies(self):
        rig = build_dual_homed_rig(rate_mbps=2.0, expected_bytes=1_000_000)
        sender, conn = rig.connect_bulk(1_000_000, close_when_done=False)
        rig.sim.run(until=0.5)
        backup = conn.create_subflow(
            rig.client_addresses[1],
            remote_address=rig.server_addresses[1],
            remote_port=SERVER_PORT,
            backup=True,
        )
        rig.sim.run(until=1.0)
        conn.remove_subflow(conn.initial_subflow, reset=True)
        rig.sim.run(until=20.0)
        assert sender.completed
        assert backup.bytes_scheduled > 0

    def test_set_backup_signals_peer(self):
        rig = build_dual_homed_rig()
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        conn.set_backup(conn.initial_subflow, True)
        rig.sim.run(until=2.0)
        server_conn = rig.server_stack.connections[0]
        assert server_conn.subflows[0].backup is True

    def test_reinjection_after_subflow_removal(self):
        rig = build_dual_homed_rig(client_pm=FullMeshPathManager(), rate_mbps=2.0, expected_bytes=1_000_000)
        sender, conn = rig.connect_bulk(1_000_000)
        rig.sim.run(until=1.0)
        # Kill the initial subflow mid-transfer; the data it still had
        # outstanding must be rescheduled on the other path.
        conn.remove_subflow(conn.initial_subflow, reset=True)
        rig.sim.run(until=40.0)
        assert sender.completed
        assert rig.server_apps[0].received_bytes == 1_000_000


class TestKernelPathManagers:
    def test_passive_keeps_single_subflow(self):
        rig = build_dual_homed_rig(client_pm=PassivePathManager())
        app, conn = rig.connect_recording()
        rig.sim.run(until=2.0)
        assert len(conn.subflows) == 1

    def test_fullmesh_creates_all_pairs(self):
        rig = build_dual_homed_rig(client_pm=FullMeshPathManager())
        app, conn = rig.connect_recording()
        rig.sim.run(until=2.0)
        pairs = {(str(f.socket.local_address), str(f.socket.remote_address)) for f in conn.subflows}
        assert len(conn.subflows) == 4
        assert len(pairs) == 4

    def test_fullmesh_reacts_to_interface_up(self):
        rig = build_dual_homed_rig(client_pm=FullMeshPathManager())
        rig.scenario.client.interface("if1").set_down()
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        before = len([f for f in conn.subflows if not f.is_closed])
        rig.scenario.client.interface("if1").set_up()
        rig.sim.run(until=3.0)
        after = len([f for f in conn.subflows if not f.is_closed])
        assert after > before

    def test_fullmesh_removes_subflows_on_interface_down(self):
        rig = build_dual_homed_rig(client_pm=FullMeshPathManager())
        app, conn = rig.connect_recording()
        rig.sim.run(until=1.0)
        rig.scenario.client.interface("if1").set_down()
        rig.sim.run(until=2.0)
        alive_on_if1 = [
            f for f in conn.subflows
            if not f.is_closed and f.socket.local_address == rig.client_addresses[1]
        ]
        assert alive_on_if1 == []

    def test_ndiffports_opens_n_subflows_same_addresses(self):
        rig = build_dual_homed_rig(client_pm=NdiffportsPathManager(subflow_count=4))
        app, conn = rig.connect_recording()
        rig.sim.run(until=2.0)
        assert len(conn.active_subflows) == 4
        addresses = {(str(f.socket.local_address), str(f.socket.remote_address)) for f in conn.active_subflows}
        assert len(addresses) == 1
        ports = {f.socket.local_port for f in conn.active_subflows}
        assert len(ports) == 4

    def test_ndiffports_ignores_server_side(self):
        rig = build_dual_homed_rig(client_pm=NdiffportsPathManager(subflow_count=3))
        app, conn = rig.connect_recording()
        rig.sim.run(until=2.0)
        server_conn = rig.server_stack.connections[0]
        assert len(server_conn.subflows) == len(conn.active_subflows)

    def test_ndiffports_validation(self):
        with pytest.raises(ValueError):
            NdiffportsPathManager(subflow_count=0)


class TestStackBehaviour:
    def test_listen_twice_rejected(self):
        rig = build_dual_homed_rig()
        with pytest.raises(ValueError):
            rig.server_stack.listen(SERVER_PORT, RecordingApp)

    def test_invalid_listen_port_rejected(self):
        rig = build_dual_homed_rig()
        with pytest.raises(ValueError):
            rig.server_stack.listen(0, RecordingApp)

    def test_unknown_segment_triggers_reset(self):
        from repro.net.packet import Segment, TCPFlags

        rig = build_dual_homed_rig()
        rogue = Segment(
            src=rig.client_addresses[0], dst=rig.server_addresses[0],
            sport=12345, dport=SERVER_PORT, flags=TCPFlags.ACK, payload_len=10,
        )
        rig.scenario.client.send(rogue)
        rig.sim.run(until=1.0)
        assert rig.server_stack.resets_sent >= 1

    def test_ephemeral_ports_unique(self):
        rig = build_dual_homed_rig()
        ports = {rig.client_stack.allocate_port() for _ in range(200)}
        assert len(ports) == 200

    def test_multiple_concurrent_connections(self):
        rig = build_dual_homed_rig(expected_bytes=50_000)
        senders = []
        for _ in range(5):
            sender, _conn = rig.connect_bulk(50_000)
            senders.append(sender)
        rig.sim.run(until=20.0)
        assert all(sender.completed for sender in senders)
        assert len(rig.server_apps) == 5
