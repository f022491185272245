"""Tests for ECMP routers and the NAT/firewall middlebox."""

import pytest

from repro.net import EcmpGroup, Host, Link, NatFirewall, Router
from repro.net.addressing import ip
from repro.net.packet import Segment, TCPFlags
from repro.netem.scenarios import build_ecmp, build_natted


class SinkStack:
    def __init__(self):
        self.segments = []

    def on_segment(self, segment, iface):
        self.segments.append(segment)

    def on_local_address_up(self, iface):
        pass

    def on_local_address_down(self, iface):
        pass


class TestEcmpGroup:
    def test_requires_members(self):
        with pytest.raises(ValueError):
            EcmpGroup([])

    def test_selection_is_deterministic_per_flow(self):
        group = EcmpGroup(["p0", "p1", "p2", "p3"])
        segment = Segment(src=ip("10.0.0.1"), dst=ip("10.9.0.1"), sport=1234, dport=80)
        assert group.select(segment) == group.select(segment)

    def test_both_directions_hash_to_same_path(self):
        group = EcmpGroup(["p0", "p1", "p2", "p3"])
        forward = Segment(src=ip("10.0.0.1"), dst=ip("10.9.0.1"), sport=1234, dport=80)
        backward = Segment(src=ip("10.9.0.1"), dst=ip("10.0.0.1"), sport=80, dport=1234)
        assert group.path_index(forward) == group.path_index(backward)

    def test_different_ports_spread_over_paths(self):
        group = EcmpGroup(["p0", "p1", "p2", "p3"])
        indices = {
            group.path_index(Segment(src=ip("10.0.0.1"), dst=ip("10.9.0.1"), sport=port, dport=80))
            for port in range(33000, 33200)
        }
        assert len(indices) == 4


class TestRouterForwarding:
    def build(self, sim):
        client = Host(sim, "client")
        server = Host(sim, "server")
        router = Router(sim, "r")
        Link(sim, name="l0").connect(client.add_interface("eth0", "10.0.0.1"), router.add_interface("c", "10.0.0.254"))
        Link(sim, name="l1").connect(router.add_interface("s", "10.1.0.254"), server.add_interface("eth0", "10.1.0.1"))
        router.add_route("10.1.0.1", "s")
        router.add_route("10.0.0.1", "c")
        sink = SinkStack()
        server.install_stack(sink)
        return client, server, router, sink

    def test_forwarding(self, sim):
        client, server, router, sink = self.build(sim)
        client.send(Segment(src=ip("10.0.0.1"), dst=ip("10.1.0.1"), sport=1, dport=2, payload_len=10))
        sim.run()
        assert len(sink.segments) == 1
        assert router.forwarded == 1

    def test_ttl_decrement_and_expiry(self, sim):
        client, server, router, sink = self.build(sim)
        client.send(Segment(src=ip("10.0.0.1"), dst=ip("10.1.0.1"), sport=1, dport=2, ttl=1))
        sim.run()
        assert sink.segments == []
        assert router.dropped_ttl == 1

    def test_no_route_drops(self, sim):
        client, server, router, sink = self.build(sim)
        client.send(Segment(src=ip("10.0.0.1"), dst=ip("10.99.0.1"), sport=1, dport=2))
        sim.run()
        assert router.dropped_no_route == 1

    def test_default_route(self, sim):
        client, server, router, sink = self.build(sim)
        router.set_default_route("s")
        client.send(Segment(src=ip("10.0.0.1"), dst=ip("10.1.0.1"), sport=1, dport=2))
        sim.run()
        assert len(sink.segments) == 1

    def test_unknown_interface_in_route_rejected(self, sim):
        router = Router(sim, "r")
        with pytest.raises(KeyError):
            router.add_route("10.0.0.1", "missing")

    def test_down_interface_drops(self, sim):
        client, server, router, sink = self.build(sim)
        router.interface("s").set_down()
        client.send(Segment(src=ip("10.0.0.1"), dst=ip("10.1.0.1"), sport=1, dport=2))
        sim.run()
        assert router.dropped_iface_down == 1


class TestEcmpScenarioRouting:
    def test_flows_pinned_and_spread(self, sim):
        scenario = build_ecmp(sim)
        sink = SinkStack()
        scenario.server.install_stack(sink)
        for port in (33001, 33002, 33003, 33004, 33005, 33006):
            scenario.client.send(
                Segment(src=scenario.client_addresses[0], dst=scenario.server_addresses[0], sport=port, dport=80, payload_len=10)
            )
        sim.run()
        assert len(sink.segments) == 6
        group = scenario.topology.router("r1").lookup(scenario.server_addresses[0])
        indices = {
            group.path_index(Segment(src=scenario.client_addresses[0], dst=scenario.server_addresses[0], sport=port, dport=80))
            for port in (33001, 33002, 33003, 33004, 33005, 33006)
        }
        assert len(indices) >= 2

    def test_reverse_path_works(self, sim):
        scenario = build_ecmp(sim)
        sink = SinkStack()
        scenario.client.install_stack(sink)
        scenario.server.send(
            Segment(src=scenario.server_addresses[0], dst=scenario.client_addresses[0], sport=80, dport=33001, payload_len=10)
        )
        sim.run()
        assert len(sink.segments) == 1


class TestNatFirewall:
    def test_inside_initiated_flow_passes(self, sim):
        scenario = build_natted(sim, nat_idle_timeout=100.0)
        sink = SinkStack()
        scenario.server.install_stack(sink)
        syn = Segment(src=scenario.client_addresses[0], dst=scenario.server_addresses[0], sport=5000, dport=80, flags=TCPFlags.SYN)
        scenario.client.send(syn)
        sim.run()
        assert len(sink.segments) == 1
        assert scenario.middlebox.active_flows()

    def test_outside_syn_blocked(self, sim):
        scenario = build_natted(sim)
        sink = SinkStack()
        scenario.client.install_stack(sink)
        syn = Segment(src=scenario.server_addresses[0], dst=scenario.client_addresses[0], sport=80, dport=5000, flags=TCPFlags.SYN)
        scenario.server.send(syn)
        sim.run()
        assert sink.segments == []
        assert scenario.middlebox.dropped_outside_syn == 1

    def test_non_syn_without_state_dropped(self, sim):
        scenario = build_natted(sim)
        sink = SinkStack()
        scenario.server.install_stack(sink)
        data = Segment(src=scenario.client_addresses[0], dst=scenario.server_addresses[0], sport=5000, dport=80, flags=TCPFlags.ACK, payload_len=10)
        scenario.client.send(data)
        sim.run()
        assert sink.segments == []
        assert scenario.middlebox.dropped_no_state == 1

    def test_state_expires_after_idle_timeout(self, sim):
        scenario = build_natted(sim, nat_idle_timeout=30.0)
        scenario.server.install_stack(SinkStack())
        syn = Segment(src=scenario.client_addresses[0], dst=scenario.server_addresses[0], sport=5000, dport=80, flags=TCPFlags.SYN)
        scenario.client.send(syn)
        sim.run()
        assert len(scenario.middlebox.active_flows()) == 1
        sim.run(until=sim.now + 61.0)
        assert scenario.middlebox.active_flows() == []
        assert scenario.middlebox.expired_flows == 1

    def test_rst_mode_resets_unknown_flows(self, sim):
        scenario = build_natted(sim, nat_sends_rst=True)
        client_sink = SinkStack()
        scenario.client.install_stack(client_sink)
        data = Segment(src=scenario.client_addresses[0], dst=scenario.server_addresses[0], sport=5000, dport=80, flags=TCPFlags.ACK, payload_len=10)
        scenario.client.send(data)
        sim.run()
        assert scenario.middlebox.resets_sent == 1
        assert any(segment.is_rst for segment in client_sink.segments)

    def test_rst_mode_answers_an_ack_by_rfc_793(self, sim):
        """An ACK-bearing segment is answered ``<SEQ=SEG.ACK><CTL=RST>``."""
        scenario = build_natted(sim, nat_sends_rst=True)
        client_sink = SinkStack()
        scenario.client.install_stack(client_sink)
        data = Segment(src=scenario.client_addresses[0], dst=scenario.server_addresses[0], sport=5000, dport=80, seq=100, ack=7777, flags=TCPFlags.ACK, payload_len=10)
        scenario.client.send(data)
        sim.run()
        (reset,) = client_sink.segments
        assert (reset.flags, reset.seq) == (TCPFlags.RST, 7777)
        assert not reset.is_ack

    def test_rst_mode_never_answers_a_rst(self, sim):
        scenario = build_natted(sim, nat_sends_rst=True)
        client_sink = SinkStack()
        scenario.client.install_stack(client_sink)
        rst = Segment(src=scenario.client_addresses[0], dst=scenario.server_addresses[0], sport=5000, dport=80, seq=100, flags=TCPFlags.RST)
        scenario.client.send(rst)
        sim.run()
        assert client_sink.segments == []
        assert scenario.middlebox.resets_sent == 0
        assert scenario.middlebox.dropped_no_state == 1

    def test_invalid_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            NatFirewall(sim, "nat", idle_timeout=0.0)

    def test_traffic_refreshes_state(self, sim):
        scenario = build_natted(sim, nat_idle_timeout=30.0)
        scenario.server.install_stack(SinkStack())
        flow_args = dict(src=scenario.client_addresses[0], dst=scenario.server_addresses[0], sport=5000, dport=80)
        scenario.client.send(Segment(flags=TCPFlags.SYN, **flow_args))
        sim.run()
        for step in range(1, 5):
            sim.schedule_at(step * 20.0, scenario.client.send, Segment(flags=TCPFlags.ACK, payload_len=1, **flow_args))
        sim.run(until=95.0)
        assert len(scenario.middlebox.active_flows()) == 1
        assert scenario.middlebox.expired_flows == 0

    def test_expiry_races_an_in_flight_segment(self, sim):
        """A segment sent before the idle timeout but arriving at the NAT
        after it finds the state gone: the NAT drops it (the silent
        mid-flight death §4.1 is about), and only a fresh SYN repairs the
        path."""
        scenario = build_natted(sim, nat_idle_timeout=10.0, delay_ms=2000.0)
        sink = SinkStack()
        scenario.server.install_stack(sink)
        flow_args = dict(src=scenario.client_addresses[0], dst=scenario.server_addresses[0], sport=5000, dport=80)
        scenario.client.send(Segment(flags=TCPFlags.SYN, **flow_args))
        sim.run()
        assert len(sink.segments) == 1  # SYN seen by the NAT at t=1 (one leg)
        # State expires at 11.0 (last refresh when the SYN crossed at t=1).
        # The client transmits at 10.5 — before expiry — but the one-second
        # client->NAT leg delivers it to the NAT at 11.5, after expiry.
        sim.schedule_at(10.5, scenario.client.send, Segment(flags=TCPFlags.ACK, payload_len=7, **flow_args))
        sim.run()
        assert len(sink.segments) == 1
        assert scenario.middlebox.dropped_no_state == 1
        assert scenario.middlebox.expired_flows == 1
        # A new SYN re-creates state and traffic flows again.
        sim.schedule_at(sim.now + 1.0, scenario.client.send, Segment(flags=TCPFlags.SYN, **flow_args))
        sim.run()
        assert len(sink.segments) == 2


class TestStackedMiddleboxes:
    """Two middleboxes on one path: an option stripper behind a NAT."""

    def build(self, sim, idle_timeout=30.0):
        from repro.mptcp.options import AddAddrOption
        from repro.net.middlebox import OptionStrippingMiddlebox

        client = Host(sim, "client")
        server = Host(sim, "server")
        stripper = OptionStrippingMiddlebox(sim, "stripper", strip_options=(AddAddrOption,))
        stripper.attach("10.0.0.250", "10.0.0.251")
        nat = NatFirewall(sim, "nat", idle_timeout=idle_timeout)
        nat.attach("10.0.0.252", "10.0.0.253")
        Link(sim, name="l0", delay=0.001).connect(
            client.add_interface("if0", "10.0.0.1"), stripper.interface("inside")
        )
        Link(sim, name="l1", delay=0.001).connect(
            stripper.interface("outside"), nat.interface("inside")
        )
        Link(sim, name="l2", delay=0.001).connect(
            nat.interface("outside"), server.add_interface("if0", "10.0.1.2")
        )
        client.add_route("10.0.1.2", "if0")
        server.add_route("10.0.0.1", "if0")
        sink = SinkStack()
        server.install_stack(sink)
        return client, server, stripper, nat, sink

    def test_both_middleboxes_apply_in_order(self, sim):
        from repro.mptcp.options import AddAddrOption, DssOption

        client, server, stripper, nat, sink = self.build(sim)
        flow_args = dict(src=ip("10.0.0.1"), dst=ip("10.0.1.2"), sport=5000, dport=80)
        client.send(Segment(flags=TCPFlags.SYN, **flow_args))
        sim.run()
        options = (AddAddrOption(address_id=1, address=ip("10.9.0.9")),
                   DssOption(data_seq=0, data_len=5))
        client.send(Segment(flags=TCPFlags.ACK, payload_len=5, options=options, **flow_args))
        sim.run()
        assert len(sink.segments) == 2
        delivered = sink.segments[-1]
        # The stripper removed ADD_ADDR, the NAT passed the known flow.
        assert delivered.find_option(AddAddrOption) is None
        assert delivered.find_option(DssOption) is not None
        assert stripper.options_stripped == 1
        assert len(nat.active_flows()) == 1

    def test_nat_expiry_drops_behind_a_working_stripper(self, sim):
        from repro.mptcp.options import AddAddrOption

        client, server, stripper, nat, sink = self.build(sim, idle_timeout=5.0)
        flow_args = dict(src=ip("10.0.0.1"), dst=ip("10.0.1.2"), sport=5000, dport=80)
        client.send(Segment(flags=TCPFlags.SYN, **flow_args))
        sim.run()
        option = AddAddrOption(address_id=1, address=ip("10.9.0.9"))
        sim.schedule_at(
            10.0, client.send,
            Segment(flags=TCPFlags.ACK, payload_len=5, options=(option,), **flow_args),
        )
        sim.run()
        # The stripper still forwarded (and stripped), but the NAT state had
        # expired, so the segment died between the two middleboxes.
        assert stripper.options_stripped == 1
        assert stripper.forwarded == 2
        assert nat.dropped_no_state == 1
        assert len(sink.segments) == 1
