"""The plain-TCP fallback path (RFC 6824 §3.6).

Covers both downgrade points — the handshake (MP_CAPABLE stripped in
either direction) and mid-stream DSS corruption on a single-subflow
connection (infinite mapping via MP_FAIL) — plus the demux accounting and
RFC 793 reset-generation fixes that rode along, and the FaultPlan duration
validation.
"""

import errno

import pytest

from repro.apps.bulk import BulkReceiverApp, BulkSenderApp
from repro.faults.inject import FaultInjector, faulted
from repro.faults.plan import FaultEvent, FaultPlan
from repro.mptcp.config import MptcpConfig
from repro.mptcp.options import MpJoinOption
from repro.mptcp.path_manager import FullMeshPathManager, PassivePathManager
from repro.mptcp.stack import MptcpStack
from repro.net.link import Link
from repro.net.packet import Segment, TCPFlags
from repro.netem.scenarios import (
    build_dual_homed,
    build_mpcapable_stripped,
    build_mpcapable_stripped_synack,
)
from repro.sim.engine import Simulator
from repro.workloads import Harness, HarnessSpec
from tests.helpers import build_dual_homed_rig

PORT = 4000


def stripped_rig(builder, seed=7, config=None, client_pm=None, expected_bytes=None,
                 server_pm=None):
    """Client/server stacks over an MP_CAPABLE-stripping topology."""
    sim = Simulator(seed=seed)
    scenario = builder(sim)
    server_apps = []

    def factory():
        app = BulkReceiverApp(expected_bytes=expected_bytes)
        server_apps.append(app)
        return app

    server_stack = MptcpStack(sim, scenario.server, config=config, path_manager=server_pm)
    server_stack.listen(PORT, factory)
    client_stack = MptcpStack(sim, scenario.client, config=config, path_manager=client_pm)
    return sim, scenario, client_stack, server_stack, server_apps


#: The path-manager hooks that concern one connection.
CONNECTION_HOOKS = (
    "on_connection_created", "on_connection_established", "on_connection_closed",
    "on_subflow_established", "on_subflow_closed", "on_rto_timeout",
    "on_add_addr", "on_rem_addr",
)


def recording(path_manager):
    """``path_manager`` with every connection hook it hears logged, in
    order, to ``path_manager.heard`` as ``(connection, hook)``."""
    path_manager.heard = []
    for hook in CONNECTION_HOOKS:
        def record(conn, *args, hook=hook, inner=getattr(path_manager, hook)):
            path_manager.heard.append((conn, hook))
            inner(conn, *args)
        setattr(path_manager, hook, record)
    return path_manager


def send_bulk(client_stack, scenario, total_bytes=50_000):
    sender = BulkSenderApp(total_bytes)
    conn = client_stack.connect(
        scenario.server_addresses[0], PORT,
        listener=sender, local_address=scenario.client_addresses[0],
    )
    return sender, conn


class TestHandshakeDowngrade:
    def test_symmetric_strip_downgrades_both_ends(self):
        """SYN stripped: the server never sees MP_CAPABLE and serves the
        connection as plain TCP; the bare SYN/ACK downgrades the client."""
        sim, scenario, client, server, apps = stripped_rig(build_mpcapable_stripped)
        sender, conn = send_bulk(client, scenario, 50_000)
        sim.run(until=20.0)
        server_conn = server.fallback_connections[0]
        assert conn.is_fallback and conn.fallback_reason == "mp_capable_stripped"
        assert server_conn.is_fallback
        assert server_conn.remote_key is None  # the key never arrived
        assert sender.completed
        assert apps[0].received_bytes == 50_000
        assert conn.closed and server_conn.closed
        assert client.connections_fallen_back == 1
        assert server.connections_fallen_back == 1

    def test_synack_strip_server_follows_client_down(self):
        """SYN intact, SYN/ACK stripped: the server learnt the client's key
        but must still downgrade when the third ACK arrives bare."""
        sim, scenario, client, server, apps = stripped_rig(build_mpcapable_stripped_synack)
        sender, conn = send_bulk(client, scenario, 50_000)
        sim.run(until=20.0)
        server_conn = server.fallback_connections[0]
        assert conn.is_fallback and server_conn.is_fallback
        assert server_conn.remote_key is not None  # SYN direction was honest
        assert sender.completed
        assert apps[0].received_bytes == 50_000
        assert conn.closed and server_conn.closed

    def test_fallback_bypasses_path_manager(self):
        """A full-mesh client over the stripper opens exactly one subflow:
        the path manager is never told about the fallen-back connection."""
        sim, scenario, client, server, apps = stripped_rig(
            build_mpcapable_stripped, client_pm=FullMeshPathManager()
        )
        sender, conn = send_bulk(client, scenario, 50_000)
        sim.run(until=20.0)
        assert conn.is_fallback
        assert conn.subflows_created == 1
        assert sender.completed

    @pytest.mark.parametrize(
        "builder", [build_mpcapable_stripped, build_mpcapable_stripped_synack],
        ids=["syn_stripped", "synack_stripped"],
    )
    def test_fallen_back_connection_hears_only_created_and_closed(self, builder):
        """The plain-TCP bypass, exactly: a fallen-back connection reaches its
        path manager with ``on_connection_created`` and then
        ``on_connection_closed``, on both ends, and with nothing else."""
        client_pm = recording(FullMeshPathManager())
        server_pm = recording(PassivePathManager())
        sim, scenario, client, server, apps = stripped_rig(
            builder, client_pm=client_pm, server_pm=server_pm
        )
        sender, conn = send_bulk(client, scenario, 50_000)
        sim.run(until=20.0)
        (server_conn,) = server.fallback_connections
        assert conn.is_fallback and server_conn.is_fallback
        assert conn.closed and server_conn.closed and sender.completed
        assert client_pm.heard == [(conn, "on_connection_created"), (conn, "on_connection_closed")]
        assert server_pm.heard == [
            (server_conn, "on_connection_created"), (server_conn, "on_connection_closed"),
        ]

    def test_mptcp_connection_hears_its_whole_life_cycle(self):
        """The same recorder on a clean two-path connection hears every hook
        in life-cycle order: the bypass is specific to fallback."""
        client_pm = recording(FullMeshPathManager())
        server_pm = recording(PassivePathManager())
        sim, scenario, client, server, apps = stripped_rig(
            build_dual_homed, client_pm=client_pm, server_pm=server_pm
        )
        sender, conn = send_bulk(client, scenario, 50_000)
        sim.run(until=20.0)
        (server_conn,) = [c for c, hook in server_pm.heard if hook == "on_connection_created"]
        assert not conn.is_fallback and conn.closed and sender.completed
        assert {c for c, _ in client_pm.heard} == {conn}
        assert {c for c, _ in server_pm.heard} == {server_conn}
        # Full mesh over two paths: the initial subflow, then three joins.
        life_cycle = [
            "on_connection_created", "on_connection_established", "on_subflow_established",
            "on_add_addr", *["on_subflow_established"] * 3,
            *["on_subflow_closed"] * 4, "on_connection_closed",
        ]
        assert [hook for _, hook in client_pm.heard] == life_cycle
        assert [hook for _, hook in server_pm.heard] == life_cycle

    def test_fallback_refuses_mp_join(self):
        sim, scenario, client, server, apps = stripped_rig(build_mpcapable_stripped)
        # Big enough that the connection is still open when the join lands.
        sender, conn = send_bulk(client, scenario, 5_000_000)
        sim.run(until=1.0)
        server_conn = server.fallback_connections[0]
        assert server_conn.is_fallback and not server_conn.closed
        unmatched_before = server.segments_unmatched
        resets_before = server.resets_sent
        join = Segment(
            src=scenario.client_addresses[1], dst=scenario.server_addresses[1],
            sport=9999, dport=PORT, seq=0, flags=TCPFlags.SYN,
            options=(MpJoinOption(token=server_conn.local_token),),
        )
        server.on_segment(join, None)
        assert len(server_conn.subflows) == 1
        assert server.segments_unmatched == unmatched_before + 1
        assert server.resets_sent == resets_before + 1

    def test_allow_fallback_false_keeps_reset_behaviour(self):
        config = MptcpConfig(allow_fallback=False)
        sim, scenario, client, server, apps = stripped_rig(
            build_mpcapable_stripped, config=config
        )
        sender, conn = send_bulk(client, scenario, 50_000)
        sim.run(until=20.0)
        assert not conn.established
        assert server.connections_accepted == 0
        assert server.resets_sent >= 1
        assert server.segments_unmatched >= 1

    def test_clean_dual_homed_never_falls_back(self):
        rig = build_dual_homed_rig(client_pm=FullMeshPathManager())
        sender, conn = rig.connect_bulk(50_000)
        rig.sim.run(until=20.0)
        assert not conn.is_fallback
        assert rig.client_stack.connections_fallen_back == 0
        assert rig.server_stack.connections_fallen_back == 0
        assert sender.completed


def corrupt_plan(start=0.1, duration=14.0, target="path0"):
    return FaultPlan(seed=0, profile="test", horizon=15.0, events=(
        FaultEvent(start, target, "corrupt_dss", (("duration", duration),)),
    ))


class TestInfiniteMappingFallback:
    def run_cell(self, scenario, controller="passive", transfer=400_000):
        return Harness().run(HarnessSpec(
            workload="bulk_transfer", scenario=scenario, controller=controller,
            seed=3, horizon=15.0, params={"transfer_bytes": transfer},
        ))

    def test_single_subflow_corruption_degrades_to_fallback(self):
        run = self.run_cell(faulted(build_dual_homed, "dual_homed", plan=corrupt_plan()))
        conn = run.connection
        assert conn.is_fallback and conn.fallback_reason == "dss_checksum_fail"
        assert run.metrics["fault_dss_corrupted"] > 0
        # Byte-exact delivery through the downgrade, then a clean close.
        assert run.metrics["bytes_delivered"] == 400_000
        assert run.server_apps[0].received_bytes == 400_000
        assert conn.closed
        assert run.metrics["fallback_connections"] == 1
        assert run.metrics["fallback_bytes"] > 0

    def test_multi_subflow_corruption_keeps_existing_recovery(self):
        """With a second subflow available the connection must not fall
        back: the meta retransmission timer repairs the stream on the
        healthy path, as before the fallback path existed."""
        run = self.run_cell(
            faulted(build_dual_homed, "dual_homed", plan=corrupt_plan()),
            controller="fullmesh",
        )
        assert not run.connection.is_fallback
        assert run.metrics["fallback_connections"] == 0
        # Meta-timer reinjection limps through the window on the healthy
        # path: partial delivery, byte-identical to the pre-fallback stack
        # (the seed state delivers exactly the same 173600 bytes here).
        assert run.metrics["bytes_delivered"] == 173_600

    def test_clean_cells_carry_no_fallback_metrics(self):
        run = self.run_cell("dual_homed")
        assert "fallback_connections" not in run.metrics
        assert "fallback_bytes" not in run.metrics

    def test_fallback_disabled_keeps_the_old_stall(self):
        """With ``allow_fallback=False`` the mapping-less data stays
        ignored and the transfer stalls inside the corruption window — the
        pre-fallback behaviour, kept reachable for comparison."""
        sim = Simulator(seed=3)
        scenario = faulted(build_dual_homed, "dual_homed", plan=corrupt_plan())(sim)
        config = MptcpConfig(allow_fallback=False)
        apps = []

        def factory():
            app = BulkReceiverApp()
            apps.append(app)
            return app

        server = MptcpStack(sim, scenario.server, config=config)
        server.listen(PORT, factory)
        client = MptcpStack(sim, scenario.client, config=config)
        sender = BulkSenderApp(400_000)
        conn = client.connect(
            scenario.server_addresses[0], PORT,
            listener=sender, local_address=scenario.client_addresses[0],
        )
        sim.run(until=15.0)
        assert not conn.is_fallback
        assert not sender.completed
        assert apps[0].received_bytes < 400_000

    def test_longlived_bidirectional_fallback(self):
        run = Harness().run(HarnessSpec(
            workload="longlived",
            scenario=faulted(build_dual_homed, "dual_homed",
                             plan=corrupt_plan(start=0.05, duration=14.5)),
            controller="passive", seed=4, horizon=15.0,
            params={"message_interval": 1.0},
        ))
        metrics = run.metrics
        assert metrics["messages_sent"] > 0
        assert metrics["messages_delivered"] == metrics["messages_sent"]


class TestDemuxAccounting:
    """Every RST-producing demux branch counts segments_unmatched."""

    def test_dead_join_token_counts(self):
        rig = build_dual_homed_rig()
        syn = Segment(
            src=rig.client_addresses[0], dst=rig.server_addresses[0],
            sport=7777, dport=4000, seq=0, flags=TCPFlags.SYN,
            options=(MpJoinOption(token=0xDEAD),),
        )
        rig.server_stack.on_segment(syn, None)
        assert rig.server_stack.segments_unmatched == 1
        assert rig.server_stack.resets_sent == 1

    def test_unlistened_port_counts(self):
        rig = build_dual_homed_rig()
        syn = Segment(
            src=rig.client_addresses[0], dst=rig.server_addresses[0],
            sport=7777, dport=9,  # nothing listens on 9
            seq=0, flags=TCPFlags.SYN,
        )
        rig.server_stack.on_segment(syn, None)
        assert rig.server_stack.segments_unmatched == 1
        assert rig.server_stack.resets_sent == 1

    def test_plain_syn_with_fallback_disabled_counts(self):
        rig = build_dual_homed_rig(config=MptcpConfig(allow_fallback=False))
        syn = Segment(
            src=rig.client_addresses[0], dst=rig.server_addresses[0],
            sport=7777, dport=4000, seq=0, flags=TCPFlags.SYN,
        )
        rig.server_stack.on_segment(syn, None)
        assert rig.server_stack.segments_unmatched == 1
        assert rig.server_stack.resets_sent == 1
        assert rig.server_stack.connections_accepted == 0

    def test_stray_non_syn_counts(self):
        rig = build_dual_homed_rig()
        stray = Segment(
            src=rig.client_addresses[0], dst=rig.server_addresses[0],
            sport=7777, dport=4000, seq=55, ack=77, flags=TCPFlags.ACK,
        )
        rig.server_stack.on_segment(stray, None)
        assert rig.server_stack.segments_unmatched == 1
        assert rig.server_stack.resets_sent == 1


class TestResetGeneration:
    """RFC 793 reset fields and the RST-storm guard."""

    def captured_reset(self, rig, segment):
        sent = []
        rig.scenario.server.send = lambda seg: sent.append(seg)
        rig.server_stack.on_segment(segment, None)
        assert len(sent) == 1
        return sent[0]

    def test_bare_syn_reset_uses_seq_zero_and_acks_the_syn(self):
        rig = build_dual_homed_rig()
        syn = Segment(
            src=rig.client_addresses[0], dst=rig.server_addresses[0],
            sport=7777, dport=9, seq=100, ack=0, flags=TCPFlags.SYN,
        )
        reset = self.captured_reset(rig, syn)
        assert reset.is_rst and reset.is_ack
        assert reset.seq == 0
        assert reset.ack == 101  # SYN consumes one sequence number

    def test_ack_segment_reset_uses_the_acknowledged_sequence(self):
        rig = build_dual_homed_rig()
        stray = Segment(
            src=rig.client_addresses[0], dst=rig.server_addresses[0],
            sport=7777, dport=9, seq=55, ack=7777, flags=TCPFlags.ACK,
        )
        reset = self.captured_reset(rig, stray)
        assert reset.is_rst and not reset.is_ack
        assert reset.seq == 7777
        assert reset.ack == 0

    def test_no_rst_storm_between_two_stacks(self):
        """A reset answering an unmatched segment must not itself be
        answered: the is_rst guard breaks the loop on the first bounce."""
        rig = build_dual_homed_rig()
        stray = Segment(
            src=rig.client_addresses[0], dst=rig.server_addresses[0],
            sport=7777, dport=4000, seq=1, ack=2, flags=TCPFlags.ACK,
        )
        rig.scenario.client.send(stray)
        rig.sim.run(until=5.0)
        assert rig.server_stack.resets_sent == 1
        assert rig.client_stack.segments_unmatched == 1  # the returning RST
        assert rig.client_stack.resets_sent == 0


class TestPlanDurationValidation:
    def test_link_flap_without_duration_is_rejected(self):
        plan = FaultPlan(seed=0, profile="test", horizon=10.0, events=(
            FaultEvent(1.0, "wire", "link_flap"),
        ))
        with pytest.raises(ValueError, match="positive duration"):
            plan.validate(["wire"])

    def test_window_event_with_zero_duration_is_rejected(self):
        plan = FaultPlan(seed=0, profile="test", horizon=10.0, events=(
            FaultEvent(1.0, "wire", "corrupt_dss", (("duration", 0.0),)),
        ))
        with pytest.raises(ValueError, match="positive duration"):
            plan.validate(["wire"])

    def test_instant_events_need_no_duration(self):
        plan = FaultPlan(seed=0, profile="test", horizon=10.0, events=(
            FaultEvent(1.0, "wire", "nat_rebind"),
            FaultEvent(2.0, "wire", "burst_loss", (("count", 3),)),
        ))
        plan.validate(["wire"])  # must not raise

    def test_injector_rejects_malformed_plan_at_construction(self, sim):
        link = Link(sim, name="wire", delay=0.001)
        plan = FaultPlan(seed=0, profile="test", horizon=10.0, events=(
            FaultEvent(1.0, "wire", "link_flap"),
        ))
        with pytest.raises(ValueError, match="positive duration"):
            FaultInjector(sim, {"wire": link}, plan)

    def test_named_plans_all_validate(self):
        from repro.faults.plans import NAMED_PLANS, named_plan

        for name in NAMED_PLANS:
            named_plan(name).validate(["path0", "path1"])
