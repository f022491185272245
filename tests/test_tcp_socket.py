"""Behavioural tests for the TCP socket state machine.

Two plain sockets are wired back-to-back over an emulated link, with a
minimal single-socket "stack" on each host.  The MPTCP layer is not
involved: these tests pin down the subflow-level TCP behaviour that the
rest of the reproduction builds on.
"""

import errno
import gc

import pytest

from repro.net import Host, Link
from repro.net.addressing import ip
from repro.sim.engine import Simulator
from repro.tcp.config import TcpConfig
from repro.tcp.socket import SubflowObserver, TcpSocket, TcpState


class MiniStack:
    """Delivers every received segment to one socket."""

    def __init__(self):
        self.socket = None

    def on_segment(self, segment, iface):
        if self.socket is not None:
            self.socket.handle_segment(segment)

    def on_local_address_up(self, iface):
        pass

    def on_local_address_down(self, iface):
        pass


class RecordingObserver(SubflowObserver):
    """Records the observer callbacks and auto-consumes received data."""

    def __init__(self):
        self.established = 0
        self.data_segments = 0
        self.data_bytes = 0
        self.acked_bytes = 0
        self.send_space_events = 0
        self.rto_events = []
        self.fin_received = 0
        self.closed = []

    def on_established(self, sock):
        self.established += 1

    def on_data(self, sock, segment, new_bytes):
        self.data_segments += 1
        self.data_bytes += new_bytes

    def on_acked(self, sock, metadata_list, newly_acked):
        self.acked_bytes += newly_acked

    def on_send_space(self, sock):
        self.send_space_events += 1

    def on_rto_expired(self, sock, rto, consecutive):
        self.rto_events.append((rto, consecutive))

    def on_fin_received(self, sock):
        self.fin_received += 1

    def on_closed(self, sock, reason):
        self.closed.append(reason)


class TcpRig:
    """Client and server socket connected over one configurable link."""

    def __init__(self, seed=3, loss_percent=0.0, rate_mbps=10.0, delay_ms=5.0, config=None, queue=100):
        self.sim = Simulator(seed=seed)
        self.client_host = Host(self.sim, "client")
        self.server_host = Host(self.sim, "server")
        ci = self.client_host.add_interface("eth0", "10.0.0.1")
        si = self.server_host.add_interface("eth0", "10.0.0.2")
        self.link = Link.mbps(self.sim, rate_mbps, delay_ms, loss_percent=loss_percent, queue_packets=queue).connect(ci, si)
        self.client_stack = MiniStack()
        self.server_stack = MiniStack()
        self.client_host.install_stack(self.client_stack)
        self.server_host.install_stack(self.server_stack)
        self.config = config if config is not None else TcpConfig()
        self.client_obs = RecordingObserver()
        self.server_obs = RecordingObserver()
        self.client = TcpSocket(
            self.sim, ip("10.0.0.1"), 40000, ip("10.0.0.2"), 80,
            transmit=lambda seg: self.client_host.send(seg),
            observer=self.client_obs, config=self.config, name="client",
        )
        self.server = TcpSocket(
            self.sim, ip("10.0.0.2"), 80, ip("10.0.0.1"), 40000,
            transmit=lambda seg: self.server_host.send(seg),
            observer=self.server_obs, config=self.config, name="server",
        )
        self.client_stack.socket = self.client
        self.server_stack.socket = self.server

    def handshake(self):
        self.client.connect()
        self.sim.run(until=self.sim.now + 1.0)

    def send_stream(self, total_bytes):
        """Send ``total_bytes`` from client to server, window permitting."""
        remaining = [total_bytes]

        def pump(*_args):
            while remaining[0] > 0:
                chunk = min(self.config.mss, remaining[0], self.client.available_window())
                if chunk <= 0:
                    return
                if not self.client.send_data(chunk):
                    return
                remaining[0] -= chunk

        self.client_obs.on_send_space = pump
        self.client_obs.on_acked = lambda sock, meta, acked: pump()
        pump()
        return remaining


class TestHandshake:
    def test_three_way_handshake(self):
        rig = TcpRig()
        rig.handshake()
        assert rig.client.state == TcpState.ESTABLISHED
        assert rig.server.state == TcpState.ESTABLISHED
        assert rig.client_obs.established == 1
        assert rig.server_obs.established == 1

    def test_syn_rtt_sample_taken(self):
        rig = TcpRig(delay_ms=20.0)
        rig.handshake()
        assert rig.client.rtt.srtt == pytest.approx(0.04, rel=0.2)

    def test_handshake_survives_synack_loss(self):
        rig = TcpRig(loss_percent=100.0)
        rig.client.connect()
        rig.sim.schedule(0.5, rig.link.set_loss_rate, 0.0)
        rig.sim.run(until=5.0)
        assert rig.client.state == TcpState.ESTABLISHED
        assert rig.server.state == TcpState.ESTABLISHED

    def test_connect_fails_after_syn_retries_exhausted(self):
        config = TcpConfig(syn_retries=2, syn_timeout=0.1)
        rig = TcpRig(loss_percent=100.0, config=config)
        rig.client.connect()
        rig.sim.run(until=10.0)
        assert rig.client.is_closed
        assert rig.client.close_reason == errno.ETIMEDOUT

    def test_connect_twice_rejected(self):
        rig = TcpRig()
        rig.client.connect()
        with pytest.raises(RuntimeError):
            rig.client.connect()


class TestDataTransfer:
    def test_bulk_transfer_no_loss(self):
        rig = TcpRig()
        rig.handshake()
        rig.send_stream(200_000)
        rig.sim.run(until=10.0)
        assert rig.server.bytes_received == 200_000
        assert rig.client.bytes_acked == 200_000

    def test_transfer_with_random_loss_completes(self):
        rig = TcpRig(loss_percent=5.0)
        rig.handshake()
        rig.send_stream(200_000)
        rig.sim.run(until=30.0)
        assert rig.server.bytes_received == 200_000
        assert rig.client.total_retransmissions > 0

    def test_throughput_close_to_link_rate(self):
        rig = TcpRig(rate_mbps=10.0, delay_ms=5.0)
        rig.handshake()
        start = rig.sim.now
        rig.send_stream(2_000_000)
        rig.sim.run(until=60.0)
        elapsed = rig.client.last_ack_time - start
        assert rig.server.bytes_received == 2_000_000
        goodput = 2_000_000 * 8 / elapsed
        assert goodput > 0.6 * 10_000_000

    def test_window_limits_in_flight(self):
        rig = TcpRig()
        rig.handshake()
        assert rig.client.available_window() == rig.client.congestion.cwnd
        rig.client.send_data(1400)
        assert rig.client.in_flight == 1400

    def test_send_respects_window(self):
        rig = TcpRig()
        rig.handshake()
        sent = 0
        while rig.client.send_data(1400):
            sent += 1400
        assert sent <= rig.client.congestion.cwnd
        assert rig.client.available_window() < 1400

    def test_send_rejected_before_established(self):
        rig = TcpRig()
        assert rig.client.send_data(100) is False

    def test_oversized_segment_rejected(self):
        rig = TcpRig()
        rig.handshake()
        with pytest.raises(ValueError):
            rig.client.send_data(rig.config.mss + 1)

    def test_metadata_reported_on_ack(self):
        rig = TcpRig()
        rig.handshake()
        acked_metadata = []
        rig.client_obs.on_acked = lambda sock, meta, n: acked_metadata.extend(meta)
        rig.client.send_data(1000, metadata="chunk-1")
        rig.sim.run(until=2.0)
        assert acked_metadata == ["chunk-1"]

    def test_pacing_rate_positive_after_samples(self):
        rig = TcpRig()
        rig.handshake()
        assert rig.client.pacing_rate() > 0

    def test_info_snapshot(self):
        rig = TcpRig()
        rig.handshake()
        rig.send_stream(50_000)
        rig.sim.run(until=5.0)
        info = rig.client.info()
        assert info.state == "ESTABLISHED"
        assert info.bytes_acked == 50_000
        assert info.rto >= rig.config.rto_min
        assert info.pacing_rate > 0
        assert info.as_dict()["snd_una"] == info.snd_una


class TestLossRecovery:
    def test_rto_event_reported(self):
        rig = TcpRig()
        rig.handshake()
        rig.link.set_loss_rate(1.0)
        rig.client.send_data(1400)
        rig.sim.run(until=rig.sim.now + 1.0)
        assert rig.client_obs.rto_events
        rto, consecutive = rig.client_obs.rto_events[0]
        assert consecutive >= 1
        assert rto >= rig.config.rto_min

    def test_rto_exponential_backoff_values(self):
        rig = TcpRig()
        rig.handshake()
        rig.link.set_loss_rate(1.0)
        rig.client.send_data(1400)
        rig.sim.run(until=rig.sim.now + 5.0)
        rtos = [event[0] for event in rig.client_obs.rto_events]
        assert len(rtos) >= 3
        assert rtos[1] == pytest.approx(rtos[0] * 2, rel=0.01)
        assert rtos[2] == pytest.approx(rtos[0] * 4, rel=0.01)

    def test_subflow_aborts_after_max_doublings(self):
        config = TcpConfig(max_rto_doublings=3)
        rig = TcpRig(config=config)
        rig.handshake()
        rig.link.set_loss_rate(1.0)
        rig.client.send_data(1400)
        rig.sim.run(until=rig.sim.now + 30.0)
        assert rig.client.is_closed
        assert rig.client.close_reason == errno.ETIMEDOUT
        assert errno.ETIMEDOUT in rig.client_obs.closed

    def test_recovery_after_loss_burst(self):
        rig = TcpRig(queue=20)
        rig.handshake()
        rig.send_stream(500_000)
        rig.sim.run(until=30.0)
        assert rig.server.bytes_received == 500_000

    def test_backoff_cleared_after_recovery(self):
        rig = TcpRig()
        rig.handshake()
        rig.link.set_loss_rate(1.0)
        rig.client.send_data(1400)
        rig.sim.run(until=rig.sim.now + 1.0)
        rig.link.set_loss_rate(0.0)
        rig.sim.run(until=rig.sim.now + 5.0)
        assert rig.client.consecutive_timeouts == 0
        assert rig.server.bytes_received == 1400

    def test_duplicate_data_not_double_counted(self):
        rig = TcpRig(loss_percent=10.0)
        rig.handshake()
        rig.send_stream(300_000)
        rig.sim.run(until=30.0)
        assert rig.server.bytes_received == 300_000
        assert rig.server_obs.data_bytes == 300_000


class TestCloseAndReset:
    def test_graceful_close_both_sides(self):
        rig = TcpRig()
        rig.handshake()
        rig.client.send_data(1000)
        rig.sim.run(until=2.0)
        rig.client.close()
        rig.sim.schedule(0.5, rig.server.close)
        rig.sim.run(until=10.0)
        assert rig.client.is_closed
        assert rig.server.is_closed
        assert rig.client.close_reason == 0
        assert rig.server.close_reason == 0
        assert rig.server_obs.fin_received == 1

    def test_close_waits_for_outstanding_data(self):
        rig = TcpRig()
        rig.handshake()
        rig.send_stream(100_000)
        rig.client.close()
        rig.sim.run(until=10.0)
        assert rig.server.bytes_received == 100_000

    def test_abort_sends_rst(self):
        rig = TcpRig()
        rig.handshake()
        rig.client.abort()
        rig.sim.run(until=rig.sim.now + 1.0)
        assert rig.client.is_closed
        assert rig.server.is_closed
        assert errno.ECONNRESET in rig.server_obs.closed

    def test_abort_without_rst(self):
        rig = TcpRig()
        rig.handshake()
        rig.client.abort(errno.ETIMEDOUT, send_rst=False)
        rig.sim.run(until=rig.sim.now + 1.0)
        assert rig.client.is_closed
        assert not rig.server.is_closed

    @pytest.mark.parametrize("close", ["graceful", "abort"])
    def test_closed_socket_holds_no_reference_cycle(self, close):
        """Once closed, a socket's timers and its observer slot reach back
        to nothing: reference counting alone frees it."""
        rig = TcpRig()
        rig.handshake()
        if close == "graceful":
            rig.client.close()
            rig.sim.schedule(0.5, rig.server.close)
        else:
            rig.client.abort()
        rig.sim.run(until=rig.sim.now + 10.0)
        for sock in (rig.client, rig.server):
            assert sock.is_closed
            assert sock._observer is None
            for timer in (sock._rto_timer, sock._syn_timer):
                assert not timer.armed
                assert not any(
                    obj is sock or getattr(obj, "__self__", None) is sock
                    for obj in gc.get_referents(timer)
                )
                with pytest.raises(RuntimeError, match="released"):
                    timer.start(1.0)

    def test_close_is_idempotent(self):
        rig = TcpRig()
        rig.handshake()
        rig.client.close()
        rig.client.close()
        rig.sim.run(until=5.0)
        assert rig.client.state in (TcpState.FIN_WAIT_2, TcpState.TIME_WAIT, TcpState.CLOSED)
