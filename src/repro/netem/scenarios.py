"""The canned topologies used by the paper's experiments.

Every builder returns the same :class:`Scenario`, bundling the topology
with the objects experiments actually need (hosts, per-path links,
addresses), so experiment code reads like the Mininet scripts it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

from repro.net.addressing import IPAddress
from repro.net.host import Host
from repro.net.link import Link
from repro.net.node import Node
from repro.net.router import EcmpGroup
from repro.netem.topology import Topology
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # repro.faults stays unloaded on clean cells
    from repro.faults.inject import FaultInjector
    from repro.faults.plan import FaultPlan


#: Line rate of every link of the middlebox topologies.
MIDDLEBOX_PATH_RATE_MBPS = 10.0


@dataclass
class Scenario:
    """A built topology and the objects experiments need from it.

    ``path_links`` are the per-path links a fault plan may target, and
    ``client_addresses`` / ``server_addresses`` hold one address per path
    (a single element on single-homed topologies).  ``middlebox`` is the
    two-legged box on the primary path of the middlebox topologies;
    ``fallback_prone`` marks a topology that downgrades to plain TCP by
    construction; ``fault_injector`` and ``fault_plan`` are filled in by
    :func:`repro.faults.inject.faulted` and stay ``None`` on clean
    scenarios.
    """

    topology: Topology
    client: Host
    server: Host
    client_addresses: list[IPAddress]
    server_addresses: list[IPAddress]
    path_links: list[Link]
    middlebox: Optional[Node] = None
    fallback_prone: bool = False
    fault_injector: Optional[FaultInjector] = None
    fault_plan: Optional[FaultPlan] = None


def _build_two_path(
    sim: Simulator,
    name: str,
    path_params: Sequence[dict],
) -> Scenario:
    """A dual-homed client and server joined by two direct paths.

    ``path_params`` holds one ``add_link`` keyword dict per path (exactly
    two paths, matching the smartphone topologies of the paper).
    """
    topo = Topology(sim, name=name)
    client = topo.add_host("client")
    server = topo.add_host("server")
    client_addresses = [IPAddress("10.0.0.1"), IPAddress("10.1.0.1")]
    server_addresses = [IPAddress("10.0.0.2"), IPAddress("10.1.0.2")]
    links = []
    for index, params in enumerate(path_params):
        link = topo.add_link(
            f"path{index}",
            (client, f"if{index}", client_addresses[index]),
            (server, f"if{index}", server_addresses[index]),
            **params,
        )
        links.append(link)
        server.add_route(client_addresses[index], f"if{index}")
        client.add_route(server_addresses[index], f"if{index}")
    return Scenario(topo, client, server, client_addresses, server_addresses, links)


def build_dual_homed(
    sim: Simulator,
    rate_mbps: float = 5.0,
    delay_ms: float = 10.0,
    loss_percent: tuple[float, float] = (0.0, 0.0),
    queue_packets: int = 100,
) -> Scenario:
    """Build the two-path smartphone topology of §4.2 and §4.3: path 0 is
    the primary (e.g. WiFi) interface, path 1 the secondary (e.g. cellular)."""
    return _build_two_path(
        sim,
        "dual-homed",
        [
            dict(
                rate_mbps=rate_mbps,
                delay_ms=delay_ms,
                loss_percent=loss_percent[index],
                queue_packets=queue_packets,
            )
            for index in range(2)
        ],
    )


def build_ecmp(sim: Simulator) -> Scenario:
    """Build the ECMP topology of §4.4: routers ``r1`` and ``r2`` hash the
    four-tuple of every subflow onto one of four parallel 8 Mbps paths
    (10, 20, 30 and 40 ms), behind gigabit access links."""
    topo = Topology(sim, name="ecmp")
    client = topo.add_host("client")
    server = topo.add_host("server")
    left = topo.add_router("r1")
    right = topo.add_router("r2")
    client_address = IPAddress("10.0.0.1")
    server_address = IPAddress("10.9.0.1")

    topo.add_link(
        "client-access",
        (client, "eth0", client_address),
        (left, "to-client", "10.0.0.254"),
    )
    topo.add_link(
        "server-access",
        (server, "eth0", server_address),
        (right, "to-server", "10.9.0.254"),
    )

    path_links = []
    left_ports = []
    right_ports = []
    for index, delay_ms in enumerate((10.0, 20.0, 30.0, 40.0)):
        left_name = f"path{index}-left"
        right_name = f"path{index}-right"
        link = topo.add_link(
            f"path{index}",
            (left, left_name, f"10.{10 + index}.0.1"),
            (right, right_name, f"10.{10 + index}.0.2"),
            rate_mbps=8.0,
            delay_ms=delay_ms,
        )
        path_links.append(link)
        left_ports.append(left_name)
        right_ports.append(right_name)

    left.add_route(client_address, "to-client")
    left.add_route(server_address, EcmpGroup(left_ports))
    right.add_route(server_address, "to-server")
    right.add_route(client_address, EcmpGroup(right_ports))
    return Scenario(topo, client, server, [client_address], [server_address], path_links)


def build_lan(sim: Simulator) -> Scenario:
    """Two hosts on a direct gigabit link (the §4.5 lab measurement)."""
    topo = Topology(sim, name="lan")
    client = topo.add_host("client")
    server = topo.add_host("server")
    client_address = IPAddress("192.168.1.1")
    server_address = IPAddress("192.168.1.2")
    link = topo.add_link(
        "lan",
        (client, "eth0", client_address),
        (server, "eth0", server_address),
        delay_ms=0.05,
        queue_packets=1000,
    )
    return Scenario(topo, client, server, [client_address], [server_address], [link])


def build_middlebox_path(
    sim: Simulator,
    name: str,
    attach_middlebox,
    leg_prefix: str,
    delay_ms: float = 10.0,
) -> Scenario:
    """Dual-homed client whose primary path crosses a two-legged middlebox.

    The shared shape behind the §4.1 NAT topology, the §3 option-stripper
    topologies and the fault-injection topologies of :mod:`repro.faults`:
    path 0 runs client → middlebox → server, path 1 is a slower (30 ms)
    direct link so the scheduler prefers the middlebox path; every link
    runs at 10 Mbps.
    ``attach_middlebox(topology)`` creates (and registers) the middlebox;
    ``leg_prefix`` names the two primary-path legs (``client-<prefix>``
    and ``<prefix>-server``), preserved per concrete scenario so packet
    traces stay recognisable.
    """
    topo = Topology(sim, name=name)
    client = topo.add_host("client")
    server = topo.add_host("server")
    box = attach_middlebox(topo)
    box.attach("10.0.0.254", "10.0.1.254")

    client_addresses = [IPAddress("10.0.0.1"), IPAddress("10.1.0.1")]
    server_addresses = [IPAddress("10.0.1.2"), IPAddress("10.1.0.2")]

    links = [
        topo.add_link(
            f"client-{leg_prefix}",
            (client, "if0", client_addresses[0]),
            box.interface(box.INSIDE),
            rate_mbps=MIDDLEBOX_PATH_RATE_MBPS,
            delay_ms=delay_ms / 2,
        ),
        topo.add_link(
            f"{leg_prefix}-server",
            box.interface(box.OUTSIDE),
            (server, "if0", server_addresses[0]),
            rate_mbps=MIDDLEBOX_PATH_RATE_MBPS,
            delay_ms=delay_ms / 2,
        ),
        topo.add_link(
            "direct",
            (client, "if1", client_addresses[1]),
            (server, "if1", server_addresses[1]),
            rate_mbps=MIDDLEBOX_PATH_RATE_MBPS,
            # The backup path is slower (higher RTT) so that the scheduler
            # prefers the middlebox path, which is what makes the failure /
            # repair cycle observable.
            delay_ms=30.0,
        ),
    ]
    client.add_route(server_addresses[0], "if0")
    client.add_route(server_addresses[1], "if1")
    server.add_route(client_addresses[0], "if0")
    server.add_route(client_addresses[1], "if1")
    return Scenario(
        topo, client, server, client_addresses, server_addresses, links, middlebox=box
    )


def build_natted(
    sim: Simulator,
    nat_idle_timeout: float = 60.0,
    nat_sends_rst: bool = False,
    delay_ms: float = 10.0,
) -> Scenario:
    """Build the NAT-on-the-primary-path topology of §4.1.

    The NAT drops the state of idle flows after a (configurable,
    aggressive) timeout, silently killing idle subflows.
    """
    return build_middlebox_path(
        sim,
        "natted",
        lambda topo: topo.add_nat("nat", idle_timeout=nat_idle_timeout, send_rst=nat_sends_rst),
        leg_prefix="nat",
        delay_ms=delay_ms,
    )


def build_wifi_lte_handover(
    sim: Simulator,
    degrade_at: Optional[float] = 1.0,
    down_at: Optional[float] = 2.5,
    recover_at: Optional[float] = None,
) -> Scenario:
    """A phone walking out of WiFi coverage onto LTE.

    Path 0 is the WiFi interface (20 Mbps, 5 ms): it starts clean, loses
    25 % of its packets from ``degrade_at`` (edge-of-coverage) and the
    interface goes down entirely at ``down_at``.  Path 1 is LTE (8 Mbps,
    35 ms): slower and with a much higher RTT, but stable throughout.
    With ``recover_at`` set, WiFi comes back (clean) at that time — the
    walk-back-indoors case.  Any of the three times may be ``None`` to
    skip that phase.
    """
    for label, value in (("degrade_at", degrade_at), ("down_at", down_at), ("recover_at", recover_at)):
        if value is not None and value < 0:
            raise ValueError(f"{label} must be non-negative, got {value!r}")
    if recover_at is not None:
        preceding = [value for value in (degrade_at, down_at) if value is not None]
        if preceding and recover_at <= max(preceding):
            raise ValueError("recover_at must come after degrade_at and down_at")
    scenario = _build_two_path(
        sim,
        "wifi-lte-handover",
        [
            dict(rate_mbps=20.0, delay_ms=5.0),
            dict(rate_mbps=8.0, delay_ms=35.0),
        ],
    )
    wifi_link = scenario.path_links[0]
    wifi_iface = scenario.client.interface("if0")
    if degrade_at is not None:
        sim.schedule(degrade_at, wifi_link.set_loss_rate, 0.25)
    if down_at is not None:
        sim.schedule(down_at, wifi_iface.set_down)
    if recover_at is not None:
        sim.schedule(recover_at, wifi_link.set_loss_rate, 0.0)
        sim.schedule(recover_at, wifi_iface.set_up)
    return scenario


def build_asymmetric_loss(
    sim: Simulator,
    loss_percents: tuple[float, float] = (5.0, 0.5),
) -> Scenario:
    """Two always-up 10 Mbps paths with very different loss characteristics.

    The low-delay path (10 ms against 25 ms) is the lossy one, so a pure
    lowest-RTT scheduler keeps being pulled towards the path that hurts it
    — the trade-off the smart-streaming controller of §4.3 is built around.
    """
    return _build_two_path(
        sim,
        "asymmetric-loss",
        [
            dict(rate_mbps=10.0, delay_ms=delay_ms, loss_percent=loss_percent)
            for delay_ms, loss_percent in zip((10.0, 25.0), loss_percents)
        ],
    )


def build_bufferbloat_cellular(sim: Simulator) -> Scenario:
    """A clean-but-slow cellular path behind a grossly oversized buffer.

    Path 0 is WiFi (10 Mbps, 10 ms, 1 % loss); path 1 is cellular (3 Mbps,
    40 ms) with a 2000-packet queue.  The cellular link never drops a packet — it queues it instead, so its
    observed RTT balloons under load (bufferbloat).  RTT-based schedulers
    drift away from it once they have filled the buffer; loss-based
    congestion control keeps pushing.
    """
    return _build_two_path(
        sim,
        "bufferbloat-cellular",
        [
            dict(rate_mbps=10.0, delay_ms=10.0, loss_percent=1.0),
            dict(rate_mbps=3.0, delay_ms=40.0, queue_packets=2000),
        ],
    )


def build_path_failure_recovery(
    sim: Simulator,
    fail_at: float = 1.5,
    recover_at: float = 3.5,
) -> Scenario:
    """Mid-transfer blackout of the primary path, then full recovery.

    Both paths run at 8 Mbps; the primary has 10 ms of delay, the
    secondary 30 ms.  Between ``fail_at`` and ``recover_at`` the primary path drops every
    packet (a blackout, not a down interface: the host keeps believing the
    path exists, exactly what RTO-based failure detection has to handle).
    """
    if recover_at <= fail_at:
        raise ValueError("recover_at must come after fail_at")
    scenario = _build_two_path(
        sim,
        "path-failure-recovery",
        [dict(rate_mbps=8.0, delay_ms=delay_ms) for delay_ms in (10.0, 30.0)],
    )
    primary = scenario.path_links[0]
    sim.schedule(fail_at, primary.set_loss_rate, 1.0)
    sim.schedule(recover_at, primary.set_loss_rate, 0.0)
    return scenario


def build_addaddr_stripped(sim: Simulator) -> Scenario:
    """Dual-path topology whose primary path strips ADD_ADDR options.

    The middlebox forwards everything else untouched, so the connection
    works — but the server's second address is never learnt through the
    primary path, which silently disables any path manager that relies on
    the advertisement (§3 of the paper).
    """
    from repro.mptcp.options import AddAddrOption

    return build_middlebox_path(
        sim,
        "addaddr-stripped",
        lambda topo: topo.add_option_stripper("stripper", strip_options=(AddAddrOption,)),
        leg_prefix="stripper",
    )


def build_mpcapable_stripped(sim: Simulator, strip_from: Optional[str] = None) -> Scenario:
    """Dual-path topology whose primary path strips MP_CAPABLE options.

    The harshest §3 interference short of dropping the SYN outright: the
    MPTCP handshake itself is sanitised away, so every connection over the
    primary path comes up as a single-subflow plain-TCP fallback — hence
    ``fallback_prone``.  ``strip_from=None`` strips both directions (the
    client's SYN arrives bare at the server); ``strip_from="outside"``
    strips only the server's SYN/ACK, so the server accepts an MPTCP
    handshake, then follows the client down when the third ACK arrives
    bare.
    """
    from repro.mptcp.options import MpCapableOption

    scenario = build_middlebox_path(
        sim,
        "mpcapable-stripped",
        lambda topo: topo.add_option_stripper(
            "stripper", strip_options=(MpCapableOption,), strip_from=strip_from
        ),
        leg_prefix="stripper",
    )
    return replace(scenario, fallback_prone=True)


def build_mpcapable_stripped_synack(sim: Simulator) -> Scenario:
    """The SYN/ACK-only MP_CAPABLE stripper (asymmetric downgrade)."""
    return build_mpcapable_stripped(sim, strip_from="outside")
