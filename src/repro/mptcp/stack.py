"""The per-host MPTCP stack.

The stack is the reproduction of "the kernel" on one host: it owns the
listening ports, demultiplexes incoming segments to subflow sockets (by
four-tuple for established subflows, by MP_CAPABLE/MP_JOIN options for new
SYNs), creates connections and subflow sockets, and fans life-cycle
notifications out to the installed path manager — which is either one of
the in-kernel strategies of :mod:`repro.mptcp.path_manager` or the paper's
Netlink path manager from :mod:`repro.core.netlink_pm`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.mptcp.config import MptcpConfig
from repro.mptcp.connection import ConnectionListener, MptcpConnection
from repro.mptcp.options import MpCapableOption, MpJoinOption
from repro.mptcp.path_manager import PassivePathManager, PathManager
from repro.mptcp.scheduler import make_scheduler
from repro.mptcp.subflow import Subflow
from repro.mptcp.token import derive_token, generate_key
from repro.net.addressing import FourTuple, IPAddress
from repro.net.host import Host
from repro.net.interface import Interface
from repro.net.packet import Segment, TCPFlags
from repro.sim.engine import Simulator
from repro.tcp.congestion import CouplingGroup, make_congestion_control
from repro.tcp.socket import TcpSocket

ListenerFactory = Callable[[], ConnectionListener]


class MptcpStack:
    """The MPTCP transport stack installed on one :class:`repro.net.host.Host`."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        config: Optional[MptcpConfig] = None,
        path_manager: Optional[PathManager] = None,
        name: Optional[str] = None,
    ) -> None:
        self._sim = sim
        self._host = host
        self._config = config if config is not None else MptcpConfig()
        self._config.validate()
        self._name = name if name is not None else host.name
        self._rng = sim.random.substream(f"stack:{self._name}")

        self._listeners: dict[int, ListenerFactory] = {}
        self._sockets: dict[FourTuple, TcpSocket] = {}
        # Mirror of _sockets keyed by the plain-int tuple an incoming
        # segment produces, so the per-segment demux skips FourTuple
        # construction and hashing entirely.
        self._demux: dict[tuple, TcpSocket] = {}
        self._connections: list[MptcpConnection] = []
        self._conn_by_token: dict[int, MptcpConnection] = {}
        self._cc_groups: dict[int, CouplingGroup] = {}
        self._used_ports: set[int] = set()

        self._path_manager = path_manager if path_manager is not None else PassivePathManager()
        self._path_manager.attach(self)

        host.install_stack(self)

        # Counters used by tests and reports.
        self.segments_delivered = 0
        self.segments_unmatched = 0
        self.resets_sent = 0
        self.connections_accepted = 0
        self.connections_initiated = 0
        self.connections_fallen_back = 0
        # Every connection that ever downgraded to plain TCP, kept past
        # close so probes can account fallback bytes after the run.
        self._fallback_connections: list[MptcpConnection] = []
        # Socket-level totals of fully closed connections, folded in at
        # close time so counters() stays proportional to live state.
        self._retired_retransmissions = 0
        self._retired_segments_sent = 0
        self._retired_segments_received = 0

        # Structured tracing (repro.obs) channels, cached once.
        log = sim.event_log
        self._trace_pm = log.channel("pm") if log is not None else None
        self._trace_conn = log.channel("connection") if log is not None else None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def sim(self) -> Simulator:
        """The simulation engine."""
        return self._sim

    @property
    def host(self) -> Host:
        """The host this stack is installed on."""
        return self._host

    @property
    def name(self) -> str:
        """Stack name (defaults to the host name)."""
        return self._name

    @property
    def mptcp_config(self) -> MptcpConfig:
        """The MPTCP configuration in effect."""
        return self._config

    @property
    def path_manager(self) -> PathManager:
        """The installed (kernel-side) path manager."""
        return self._path_manager

    @property
    def connections(self) -> list[MptcpConnection]:
        """Connections that are not yet fully closed (do not mutate).

        This is the live list: a connection closing removes itself from it
        via :meth:`notify_connection_closed`.  Callers that close
        connections while iterating (e.g. tearing down a many-connection
        cell) must iterate a copy — ``list(stack.connections)``.
        """
        return self._connections

    @property
    def fallback_connections(self) -> list[MptcpConnection]:
        """Every connection that downgraded to plain TCP, closed ones
        included (do not mutate)."""
        return self._fallback_connections

    def local_addresses(self) -> list[IPAddress]:
        """Addresses of the host's interfaces that are currently up."""
        return self._host.addresses(only_up=True)

    def connection_by_token(self, token: int) -> Optional[MptcpConnection]:
        """Look up a connection by its local token (Netlink commands use this)."""
        return self._conn_by_token.get(token)

    # ------------------------------------------------------------------
    # application API
    # ------------------------------------------------------------------
    def listen(self, port: int, listener_factory: ListenerFactory) -> None:
        """Accept MPTCP connections on ``port``.

        ``listener_factory`` is called once per accepted connection and must
        return the :class:`ConnectionListener` that will receive its events.
        """
        if not 0 < port <= 0xFFFF:
            raise ValueError(f"port out of range: {port!r}")
        if port in self._listeners:
            raise ValueError(f"port {port} is already listening on {self._name}")
        self._listeners[port] = listener_factory
        self._used_ports.add(port)

    def connect(
        self,
        remote_address: IPAddress | str,
        remote_port: int,
        listener: Optional[ConnectionListener] = None,
        local_address: Optional[IPAddress | str] = None,
        local_port: Optional[int] = None,
    ) -> MptcpConnection:
        """Open an MPTCP connection to ``remote_address:remote_port``.

        The initial subflow leaves from ``local_address`` when given,
        otherwise from the interface the host routes the destination
        through.
        """
        remote = IPAddress(remote_address)
        if local_address is None:
            iface = self._host.route(remote)
            if iface is None:
                raise RuntimeError(f"host {self._host.name} has no usable interface towards {remote}")
            local = iface.address
        else:
            local = IPAddress(local_address)
        port = local_port if local_port is not None else self.allocate_port()
        conn = MptcpConnection(
            stack=self,
            listener=listener,
            scheduler=make_scheduler(self._config.scheduler),
            local_key=self._generate_local_key(),
            is_client=True,
            remote_address=remote,
            remote_port=remote_port,
        )
        self._register_connection(conn)
        self.connections_initiated += 1
        conn.open_initial_subflow(local, port)
        return conn

    # ------------------------------------------------------------------
    # socket plumbing used by connections
    # ------------------------------------------------------------------
    def allocate_port(self) -> int:
        """Pick an unused ephemeral port (mirrors the kernel's random choice)."""
        for _ in range(10_000):
            port = self._rng.ephemeral_port()
            if port not in self._used_ports:
                self._used_ports.add(port)
                return port
        raise RuntimeError(f"stack {self._name} ran out of ephemeral ports")

    def create_subflow_socket(
        self,
        conn: MptcpConnection,
        local_address: IPAddress,
        local_port: int,
        remote_address: IPAddress,
        remote_port: int,
    ) -> TcpSocket:
        """Create (and register) the TCP socket backing a new subflow."""
        group = self._cc_groups.setdefault(conn.local_token, CouplingGroup())
        congestion = make_congestion_control(
            self._config.tcp.congestion_control,
            self._config.tcp.mss,
            self._config.tcp.initial_cwnd_segments,
            self._config.tcp.initial_ssthresh_bytes,
            group=group,
        )
        self._used_ports.add(local_port)
        socket = TcpSocket(
            sim=self._sim,
            local_addr=local_address,
            local_port=local_port,
            remote_addr=remote_address,
            remote_port=remote_port,
            # Bound per socket, so a ``host.send`` replaced beforehand intercepts.
            transmit=self._host.send,
            observer=conn,
            config=self._config.tcp,
            congestion=congestion,
            name=f"{self._name}:{local_address}:{local_port}",
        )
        self.register_socket(socket)
        return socket

    def register_socket(self, socket: TcpSocket) -> None:
        """Add a socket to the four-tuple demultiplexing table."""
        four_tuple = socket.four_tuple
        self._sockets[four_tuple] = socket
        self._demux[self._demux_key(four_tuple)] = socket

    def unregister_socket(self, socket: TcpSocket) -> None:
        """Remove a socket from the demultiplexing table (idempotent)."""
        four_tuple = socket.four_tuple
        self._sockets.pop(four_tuple, None)
        self._demux.pop(self._demux_key(four_tuple), None)

    @staticmethod
    def _demux_key(four_tuple: FourTuple) -> tuple:
        """The int-tuple an incoming segment of this flow maps to."""
        return (four_tuple.src._value, four_tuple.sport, four_tuple.dst._value, four_tuple.dport)

    # ------------------------------------------------------------------
    # segment reception (Host -> stack)
    # ------------------------------------------------------------------
    def on_segment(self, segment: Segment, iface: Interface) -> None:
        """Demultiplex one received segment."""
        key = (segment.dst._value, segment.dport, segment.src._value, segment.sport)
        socket = self._demux.get(key)
        if socket is not None:
            self.segments_delivered += 1
            socket.handle_segment(segment)
            return
        if segment.is_syn and not segment.is_ack:
            self._handle_new_syn(segment)
            return
        self.segments_unmatched += 1
        if not segment.is_rst:
            self._send_reset(segment)

    def _handle_new_syn(self, segment: Segment) -> None:
        factory = self._listeners.get(segment.dport)
        join = segment.find_option(MpJoinOption)
        if join is not None:
            conn = self._conn_by_token.get(join.token)
            if conn is None or conn.closed:
                # Dead or unknown token: middlebox-mangled or stale MP_JOIN.
                self.segments_unmatched += 1
                self._send_reset(segment)
                return
            flow = conn.accept_join(segment)
            if flow is None:
                # Refused join (subflow cap, or a fallen-back connection).
                self.segments_unmatched += 1
                self._send_reset(segment)
            return
        if factory is None:
            self.segments_unmatched += 1
            self._send_reset(segment)
            return
        capable = segment.find_option(MpCapableOption)
        if capable is None and not self._config.allow_fallback:
            # Fallback disabled: plain TCP SYNs are not served.
            self.segments_unmatched += 1
            self._send_reset(segment)
            return
        # With MP_CAPABLE this is an ordinary MPTCP passive open; without it
        # (stripped in transit) the connection comes up as a single-subflow
        # plain-TCP fallback — accept_initial_subflow handles both.
        listener = factory()
        conn = MptcpConnection(
            stack=self,
            listener=listener,
            scheduler=make_scheduler(self._config.scheduler),
            local_key=self._generate_local_key(),
            is_client=False,
            remote_address=segment.src,
            remote_port=segment.sport,
        )
        self._register_connection(conn)
        self.connections_accepted += 1
        conn.accept_initial_subflow(segment)

    def _send_reset(self, segment: Segment) -> None:
        # RFC 793 reset generation: a segment carrying an ACK is answered
        # with ``<SEQ=SEG.ACK><CTL=RST>``; a segment without one (a bare
        # SYN, whose ack field is meaningless) with ``<SEQ=0>
        # <ACK=SEG.SEQ+SEG.LEN><CTL=RST,ACK>``.  Using ``segment.ack``
        # unconditionally put garbage sequence numbers on resets for
        # ACK-less segments.
        if segment.is_ack:
            seq, ack, flags = segment.ack, 0, TCPFlags.RST
        else:
            seq, ack, flags = 0, segment.end_seq, TCPFlags.RST | TCPFlags.ACK
        reset = Segment(
            src=segment.dst,
            dst=segment.src,
            sport=segment.dport,
            dport=segment.sport,
            seq=seq,
            ack=ack,
            flags=flags,
        )
        self.resets_sent += 1
        if self._trace_conn is not None:
            self._trace_conn.emit(
                self._sim.now, "connection", "reset_sent", self._name,
                {"to": f"{segment.src}:{segment.sport}"},
            )
        self._host.send(reset)

    # ------------------------------------------------------------------
    # connection registry & path-manager notifications
    # ------------------------------------------------------------------
    def _generate_local_key(self) -> int:
        """Draw a local key whose 32-bit token is unused on this stack.

        RFC 6824 §3.1 has the opener check for token collisions before
        using a key; with the ``connections`` scale axis putting hundreds
        of concurrent connections on one stack, a silent collision would
        overwrite the token-demux entry and misroute every later MP_JOIN
        of the shadowed connection.  A redraw is ~2^-32-rare per live
        connection, so the common single-draw case consumes exactly the
        RNG values it always did — committed baselines are untouched.
        """
        for _ in range(64):
            key = generate_key(self._rng)
            if derive_token(key) not in self._conn_by_token:
                return key
        raise RuntimeError(
            f"stack {self._name} could not draw a collision-free MPTCP key"
        )

    def _register_connection(self, conn: MptcpConnection) -> None:
        self._connections.append(conn)
        self._conn_by_token[conn.local_token] = conn

    def notify_connection_created(self, conn: MptcpConnection, flow: Subflow) -> None:
        """Called by the connection when its initial subflow starts."""
        self._path_manager.on_connection_created(conn)

    def notify_connection_fallback(self, conn: MptcpConnection) -> None:
        """Called by a connection when it downgrades to plain TCP.

        The path manager is *not* told: a fallen-back connection is outside
        its jurisdiction (no subflows to add or remove), which is exactly
        the bypass the fallback contract requires.
        """
        self.connections_fallen_back += 1
        self._fallback_connections.append(conn)

    def notify_connection_established(self, conn: MptcpConnection) -> None:
        """Called when the initial subflow's handshake completes.

        Fallen-back connections bypass the path manager entirely: there is
        nothing a subflow strategy could do for plain TCP.
        """
        if conn.is_fallback:
            return
        self._path_manager.on_connection_established(conn)

    def notify_connection_closed(self, conn: MptcpConnection) -> None:
        """Called when the connection fully terminates."""
        if conn in self._connections:
            self._connections.remove(conn)
        self._conn_by_token.pop(conn.local_token, None)
        self._cc_groups.pop(conn.local_token, None)
        # Fold the departing connection's socket totals into the retired
        # accumulators so counters() keeps counting closed connections.
        for flow in conn.subflows:
            sock = flow.socket
            self._retired_retransmissions += sock.total_retransmissions
            self._retired_segments_sent += sock.segments_sent
            self._retired_segments_received += sock.segments_received
        self._path_manager.on_connection_closed(conn)

    def notify_subflow_established(self, conn: MptcpConnection, flow: Subflow) -> None:
        """Called when any subflow's handshake completes."""
        if conn.is_fallback:
            return
        self._path_manager.on_subflow_established(conn, flow)

    def notify_subflow_closed(self, conn: MptcpConnection, flow: Subflow, reason: int) -> None:
        """Called when any subflow terminates."""
        if conn.is_fallback:
            return
        self._path_manager.on_subflow_closed(conn, flow, reason)

    def notify_rto_timeout(self, conn: MptcpConnection, flow: Subflow, rto: float, consecutive: int) -> None:
        """Called when a subflow's retransmission timer expires."""
        if conn.is_fallback:
            return
        self._path_manager.on_rto_timeout(conn, flow, rto, consecutive)

    def notify_add_addr(self, conn: MptcpConnection, address_id: int, address: IPAddress, port: int) -> None:
        """Called when the peer advertises an address."""
        if conn.is_fallback:
            return
        if self._trace_pm is not None:
            self._trace_pm.emit(
                self._sim.now, "pm", "add_addr", self._name,
                {"address_id": address_id, "address": str(address), "port": port},
            )
        self._path_manager.on_add_addr(conn, address_id, address, port)

    def notify_rem_addr(self, conn: MptcpConnection, address_id: int) -> None:
        """Called when the peer withdraws an address."""
        if conn.is_fallback:
            return
        if self._trace_pm is not None:
            self._trace_pm.emit(
                self._sim.now, "pm", "rem_addr", self._name,
                {"address_id": address_id},
            )
        self._path_manager.on_rem_addr(conn, address_id)

    # ------------------------------------------------------------------
    # interface events (Host -> stack -> path manager)
    # ------------------------------------------------------------------
    def on_local_address_up(self, iface: Interface) -> None:
        """A local interface came up."""
        if self._trace_pm is not None:
            self._trace_pm.emit(
                self._sim.now, "pm", "address_up", self._name,
                {"iface": iface.full_name},
            )
        self._path_manager.on_local_address_up(iface)

    def on_local_address_down(self, iface: Interface) -> None:
        """A local interface went down."""
        if self._trace_pm is not None:
            self._trace_pm.emit(
                self._sim.now, "pm", "address_down", self._name,
                {"iface": iface.full_name},
            )
        self._path_manager.on_local_address_down(iface)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Named monotonic counters for this stack (sorted keys).

        The per-stack scope of the ``repro.obs`` counter registry:
        demux and handshake totals kept live on the stack, plus
        socket-level segment and retransmission counts summed over every
        connection — closed connections included, via the retired
        accumulators folded in at close time.
        """
        retransmissions = self._retired_retransmissions
        segments_sent = self._retired_segments_sent
        segments_received = self._retired_segments_received
        for conn in self._connections:
            for flow in conn.subflows:
                sock = flow.socket
                retransmissions += sock.total_retransmissions
                segments_sent += sock.segments_sent
                segments_received += sock.segments_received
        return {
            "connections_accepted": self.connections_accepted,
            "connections_fallen_back": self.connections_fallen_back,
            "connections_initiated": self.connections_initiated,
            "resets_sent": self.resets_sent,
            "retransmissions": retransmissions,
            "segments_delivered": self.segments_delivered,
            "segments_received": segments_received,
            "segments_sent": segments_sent,
            "segments_unmatched": self.segments_unmatched,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MptcpStack {self._name} connections={len(self._connections)} "
            f"sockets={len(self._sockets)} pm={self._path_manager.name}>"
        )
