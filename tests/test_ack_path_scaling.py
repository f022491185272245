"""Scaling guard: the per-ACK path must not grow with the window behind a hole.

The CI cells are ~500 events and never build a window, so a structure that
is re-scanned on every ACK (the out-of-order list, the retransmission queue
under SACK, the scheduler's candidate lists) costs them nothing and only
shows up on the multi-megabyte cells researchers actually run.  These tests
hold holes open behind windows of two depths and compare *counts* — Python
function calls per delivered data segment under ``sys.setprofile`` — which
repeat exactly, unlike a timing.

The loss pattern is the worst case for every structure at once: every other
data segment of the first flight is dropped, together with each of its
retransmissions, so the receiver holds one out-of-order range per delivered
segment, every ACK carries SACK blocks, and the sender's queue stays at the
full window depth.
"""

import sys

import pytest

from repro.apps.bulk import BulkReceiverApp
from repro.mptcp.config import MptcpConfig
from repro.mptcp.options import DssOption
from repro.mptcp.path_manager import FullMeshPathManager
from repro.mptcp.stack import MptcpStack
from repro.net.addressing import ip
from repro.netem.scenarios import build_dual_homed
from repro.sim.engine import Simulator
from repro.tcp.config import TcpConfig
from repro.tcp.socket import SubflowObserver, TcpSocket

SHALLOW, DEEP = 8, 128
MAX_GROWTH = 1.3
MSS = TcpConfig().mss


def count_calls(function) -> int:
    """Python-level function calls made while ``function()`` runs."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return calls


class Pump(SubflowObserver):
    """Keeps a bare socket's window full."""

    def pump(self, sock) -> None:
        while True:
            chunk = min(MSS, sock.available_window())
            if chunk <= 0 or not sock.send_data(chunk):
                return

    def on_send_space(self, sock) -> None:
        self.pump(sock)

    def on_acked(self, sock, metadata_list, newly_acked) -> None:
        self.pump(sock)


def tcp_calls_per_segment(window: int) -> float:
    """A bare socket pair; odd segments of one ``window``-deep flight arrive."""
    sim = Simulator(seed=1)
    config = TcpConfig(initial_cwnd_segments=window)
    delivered = 0
    pair: list = []

    def to_server(segment) -> None:
        nonlocal delivered
        if segment.payload_len:
            if ((segment.seq - 1) // MSS) % 2 == 0:
                return
            delivered += 1
        sim.schedule(0.005, pair[1].handle_segment, segment)

    def to_client(segment) -> None:
        sim.schedule(0.005, pair[0].handle_segment, segment)

    pump = Pump()
    pair.append(TcpSocket(sim, ip("10.0.0.1"), 40000, ip("10.0.0.2"), 80,
                          transmit=to_server, observer=pump, config=config))
    pair.append(TcpSocket(sim, ip("10.0.0.2"), 80, ip("10.0.0.1"), 40000,
                          transmit=to_client, config=config))
    client, server = pair
    client.connect()
    # Stop short of the first retransmission timeout: the phase measured is
    # one flight, its SACK-bearing duplicate ACKs and the retransmissions
    # they trigger.
    calls = count_calls(lambda: sim.run(until=0.15))
    assert delivered == window // 2
    assert len(server._reassembly.out_of_order_ranges) == window // 2
    assert client.in_flight >= window * MSS
    return calls / delivered


def mptcp_calls_per_segment(window: int) -> float:
    """Two stacks over ``build_dual_homed``, four subflows, the same pattern
    applied in data-sequence space so the connection-level reassembly holds
    the ranges too."""
    sim = Simulator(seed=1)
    scenario = build_dual_homed(sim, rate_mbps=1000.0, delay_ms=5.0, queue_packets=4 * DEEP)
    config = MptcpConfig(tcp=TcpConfig(initial_cwnd_segments=window))
    delivered = 0
    host_send = scenario.client.send

    def lossy_send(segment) -> bool:
        nonlocal delivered
        if segment.payload_len:
            dss = segment.find_option(DssOption)
            if (dss.data_seq // MSS) % 2 == 0:
                return True
            delivered += 1
        return host_send(segment)

    scenario.client.send = lossy_send
    receivers: list = []

    def accept() -> BulkReceiverApp:
        receivers.append(BulkReceiverApp())
        return receivers[-1]

    MptcpStack(sim, scenario.server, config=config).listen(5000, accept)
    client = MptcpStack(sim, scenario.client, config=config, path_manager=FullMeshPathManager())
    # Establish all four subflows first, then offer the data in one go.
    conn = client.connect(scenario.server_addresses[0], 5000,
                          local_address=scenario.client_addresses[0])
    sim.run(until=1.0)
    assert len(conn.active_subflows) == 4
    calls = count_calls(lambda: (conn.send(8 * DEEP * MSS), sim.run(until=1.15)))
    assert delivered == 4 * window // 2
    (receiver,) = receivers
    assert receiver.received_bytes == 0
    return calls / delivered


@pytest.mark.parametrize("calls_per_segment", [tcp_calls_per_segment, mptcp_calls_per_segment])
def test_calls_per_segment_do_not_grow_with_the_window(calls_per_segment):
    shallow = calls_per_segment(SHALLOW)
    deep = calls_per_segment(DEEP)
    assert deep < MAX_GROWTH * shallow, (
        f"{calls_per_segment.__name__}: {shallow:.1f} calls/segment behind a {SHALLOW}-segment "
        f"window, {deep:.1f} behind {DEEP}"
    )


def send_loop_counts() -> dict:
    """Frames by name while four loss-free subflows carry 2 MB offered in one
    ``send``: scheduler passes (``select`` or ``pick``, whichever the send
    loop calls), ``available_window`` and ``send_data``."""
    sim = Simulator(seed=1)
    scenario = build_dual_homed(sim)
    receivers: list = []

    def accept() -> BulkReceiverApp:
        receivers.append(BulkReceiverApp())
        return receivers[-1]

    MptcpStack(sim, scenario.server).listen(5000, accept)
    client = MptcpStack(sim, scenario.client, path_manager=FullMeshPathManager())
    conn = client.connect(scenario.server_addresses[0], 5000,
                          local_address=scenario.client_addresses[0])
    sim.run(until=1.0)
    assert len(conn.active_subflows) == 4
    counts = {"scheduler": 0, "available_window": 0, "send_data": 0}

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = code.co_name
            if name in ("select", "pick"):
                if code.co_filename.endswith("scheduler.py"):
                    counts["scheduler"] += 1
            elif name in counts and code.co_filename.endswith("socket.py"):
                counts[name] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        conn.send(2_000_000)
        sim.run(until=60.0)
    finally:
        sys.setprofile(previous)
    (receiver,) = receivers
    assert receiver.received_bytes == 2_000_000
    return counts


def test_one_scheduler_pass_per_flight_not_per_chunk():
    """No CI cell is long enough to show the send loop as time, so the guard
    is a count that repeats exactly.  Asking the scheduler per chunk plus
    once more per ACK to learn that every window is shut measured 1.410
    scheduler frames (2 297 / 1 629) and 8.11 ``available_window`` calls
    (13 211) per ``send_data``; one ``pick`` per flight, its window kept in
    a local, measures 0.439 (715) and 3.23 (5 254)."""
    counts = send_loop_counts()
    sends = counts["send_data"]
    assert sends >= 2_000_000 // MSS
    assert counts["scheduler"] / sends < 0.7, counts
    assert counts["available_window"] / sends < 5, counts
