"""Tests for links, interfaces, hosts and tracers."""

import pytest

from repro.net import Host, Link, PacketTracer
from repro.net.addressing import ip
from repro.net.packet import Segment, TCPFlags


def make_pair(sim, **link_kwargs):
    """Two hosts joined by one link; returns (a, b, link)."""
    a = Host(sim, "a")
    b = Host(sim, "b")
    ia = a.add_interface("eth0", "10.0.0.1")
    ib = b.add_interface("eth0", "10.0.0.2")
    defaults = dict(rate_bps=8_000_000, delay=0.01, queue_packets=10)
    defaults.update(link_kwargs)
    link = Link(sim, name="l", **defaults).connect(ia, ib)
    return a, b, link


class SinkStack:
    """Minimal stack recording received segments."""

    def __init__(self):
        self.segments = []

    def on_segment(self, segment, iface):
        self.segments.append((segment, iface))

    def on_local_address_up(self, iface):
        pass

    def on_local_address_down(self, iface):
        pass


def data_segment(payload=1000, src="10.0.0.1", dst="10.0.0.2"):
    return Segment(src=ip(src), dst=ip(dst), sport=1, dport=2, payload_len=payload, flags=TCPFlags.ACK)


class TestLink:
    def test_delivery_and_delay(self, sim):
        a, b, link = make_pair(sim)
        sink = SinkStack()
        b.install_stack(sink)
        segment = data_segment()
        a.send(segment)
        sim.run()
        assert len(sink.segments) == 1
        # serialisation (1040 bytes at 8 Mbps) + 10 ms propagation
        expected = (segment.size_bytes * 8 / 8_000_000) + 0.01
        assert sim.now == pytest.approx(expected, rel=1e-6)

    def test_serialisation_spacing(self, sim):
        a, b, link = make_pair(sim)
        sink = SinkStack()
        b.install_stack(sink)
        for _ in range(3):
            a.send(data_segment())
        sim.run()
        assert len(sink.segments) == 3

    def test_queue_overflow_drops(self, sim):
        a, b, link = make_pair(sim, queue_packets=2)
        sink = SinkStack()
        b.install_stack(sink)
        for _ in range(10):
            a.send(data_segment())
        sim.run()
        # 1 in service + 2 queued survive the burst
        assert len(sink.segments) == 3
        assert link.stats()["dropped_queue"] == 7

    def test_full_loss_drops_everything(self, sim):
        a, b, link = make_pair(sim, loss_rate=1.0)
        sink = SinkStack()
        b.install_stack(sink)
        for _ in range(5):
            a.send(data_segment())
        sim.run()
        assert sink.segments == []
        assert link.stats()["dropped_loss"] == 5

    def test_loss_rate_statistics(self, sim):
        a, b, link = make_pair(sim, loss_rate=0.3, queue_packets=10_000, rate_bps=1e9)
        sink = SinkStack()
        b.install_stack(sink)
        for _ in range(2000):
            a.send(data_segment(payload=10))
        sim.run()
        delivered = len(sink.segments)
        assert 0.62 < delivered / 2000 < 0.78

    def test_set_loss_rate_at_runtime(self, sim):
        a, b, link = make_pair(sim)
        link.set_loss_rate(0.5)
        assert link.loss_rate == 0.5
        with pytest.raises(ValueError):
            link.set_loss_rate(1.5)

    def test_mbps_constructor_units(self, sim):
        a = Host(sim, "x")
        b = Host(sim, "y")
        link = Link.mbps(sim, 5.0, 10.0, loss_percent=30.0)
        assert link.rate_bps == pytest.approx(5_000_000)
        assert link.delay == pytest.approx(0.010)
        assert link.loss_rate == pytest.approx(0.30)

    def test_invalid_parameters_rejected(self, sim):
        with pytest.raises(ValueError):
            Link(sim, rate_bps=0)
        with pytest.raises(ValueError):
            Link(sim, delay=-1)
        with pytest.raises(ValueError):
            Link(sim, queue_packets=0)

    def test_out_of_range_loss_rejected_at_construction(self, sim):
        # The constructor states the same [0, 1] rule as set_loss_rate.
        with pytest.raises(ValueError):
            Link(sim, loss_rate=1.5)
        from repro.netem.scenarios import build_asymmetric_loss

        with pytest.raises(ValueError):
            build_asymmetric_loss(sim, loss_percents=(-5.0, 150.0))

    def test_double_connect_rejected(self, sim):
        a, b, link = make_pair(sim)
        with pytest.raises(RuntimeError):
            link.connect(a.interface("eth0"), b.interface("eth0"))

    def test_peer_of(self, sim):
        a, b, link = make_pair(sim)
        assert link.peer_of(a.interface("eth0")) is b.interface("eth0")

    def test_duplex_directions_are_independent(self, sim):
        a, b, link = make_pair(sim, queue_packets=1)
        sink_a, sink_b = SinkStack(), SinkStack()
        a.install_stack(sink_a)
        b.install_stack(sink_b)
        a.send(data_segment())
        b.send(data_segment(src="10.0.0.2", dst="10.0.0.1"))
        sim.run()
        assert len(sink_a.segments) == 1
        assert len(sink_b.segments) == 1


class TestInterfaceAndHost:
    def test_interface_down_blocks_tx_and_rx(self, sim):
        a, b, link = make_pair(sim)
        sink = SinkStack()
        b.install_stack(sink)
        a.interface("eth0").set_down()
        assert a.send(data_segment()) is False
        sim.run()
        assert sink.segments == []

    def test_interface_down_notifies_stack(self, sim):
        a, b, _ = make_pair(sim)
        events = []

        class Watcher(SinkStack):
            def on_local_address_down(self, iface):
                events.append(("down", iface.name))

            def on_local_address_up(self, iface):
                events.append(("up", iface.name))

        a.install_stack(Watcher())
        a.interface("eth0").set_down()
        a.interface("eth0").set_up()
        assert events == [("down", "eth0"), ("up", "eth0")]

    def test_duplicate_interface_name_rejected(self, sim):
        a = Host(sim, "a")
        a.add_interface("eth0", "10.0.0.1")
        with pytest.raises(ValueError):
            a.add_interface("eth0", "10.0.0.2")

    def test_host_policy_routing_by_source(self, sim):
        host = Host(sim, "multi")
        host.add_interface("if0", "10.0.0.1")
        host.add_interface("if1", "10.1.0.1")
        chosen = host.route(ip("10.9.9.9"), source=ip("10.1.0.1"))
        assert chosen.name == "if1"

    def test_host_static_route(self, sim):
        host = Host(sim, "multi")
        host.add_interface("if0", "10.0.0.1")
        host.add_interface("if1", "10.1.0.1")
        host.add_route("10.9.9.9", "if1")
        assert host.route(ip("10.9.9.9")).name == "if1"

    def test_host_default_interface(self, sim):
        host = Host(sim, "multi")
        host.add_interface("if0", "10.0.0.1")
        host.add_interface("if1", "10.1.0.1")
        host.set_default_interface("if1")
        assert host.route(ip("8.8.8.8")).name == "if1"

    def test_route_skips_down_interfaces(self, sim):
        host = Host(sim, "multi")
        host.add_interface("if0", "10.0.0.1")
        host.add_interface("if1", "10.1.0.1")
        host.interface("if0").set_down()
        assert host.route(ip("8.8.8.8")).name == "if1"

    def test_route_returns_none_when_all_down(self, sim):
        host = Host(sim, "multi")
        host.add_interface("if0", "10.0.0.1")
        host.interface("if0").set_down()
        assert host.route(ip("8.8.8.8")) is None

    def test_host_drops_non_local_segments(self, sim):
        a, b, _ = make_pair(sim)
        sink = SinkStack()
        b.install_stack(sink)
        a.send(data_segment(dst="10.0.0.99"))
        sim.run()
        assert sink.segments == []
        assert b.dropped_not_local == 1

    def test_addresses_listing(self, sim):
        host = Host(sim, "multi")
        host.add_interface("if0", "10.0.0.1")
        host.add_interface("if1", "10.1.0.1")
        host.interface("if1").set_down()
        assert host.addresses() == [ip("10.0.0.1")]
        assert len(host.addresses(only_up=False)) == 2

    def test_unknown_route_target_rejected(self, sim):
        host = Host(sim, "h")
        host.add_interface("if0", "10.0.0.1")
        with pytest.raises(KeyError):
            host.add_route("10.0.0.2", "nope")
        with pytest.raises(KeyError):
            host.set_default_interface("nope")


class TestTracer:
    def test_records_deliveries(self, sim):
        a, b, link = make_pair(sim)
        b.install_stack(SinkStack())
        tracer = PacketTracer().attach(link)
        a.send(data_segment())
        sim.run()
        assert len(tracer) == 1
        record = tracer.records[0]
        assert record.from_iface == "a.eth0"
        assert record.to_iface == "b.eth0"

    def test_filter_predicate(self, sim):
        a, b, link = make_pair(sim)
        b.install_stack(SinkStack())
        tracer = PacketTracer(keep=lambda seg: seg.payload_len > 500).attach(link)
        a.send(data_segment(payload=100))
        a.send(data_segment(payload=1000))
        sim.run()
        assert len(tracer) == 1

    def test_helpers(self, sim):
        a, b, link = make_pair(sim)
        b.install_stack(SinkStack())
        tracer = PacketTracer().attach(link)
        a.send(Segment(src=ip("10.0.0.1"), dst=ip("10.0.0.2"), sport=1, dport=2, flags=TCPFlags.SYN))
        a.send(data_segment())
        sim.run()
        assert len(tracer.syn_records()) == 1
        assert len(tracer.data_records()) == 1
        assert len(tracer.records_with_flag(TCPFlags.SYN)) == 1
        tracer.clear()
        assert len(tracer) == 0
