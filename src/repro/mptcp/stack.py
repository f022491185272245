"""The per-host MPTCP stack.

The stack is the reproduction of "the kernel" on one host: it owns the
listening ports, demultiplexes incoming segments to subflow sockets (by
four-tuple for established subflows, by MP_CAPABLE/MP_JOIN options for new
SYNs), creates connections and subflow sockets, and installs the path manager —
either one of the in-kernel strategies of :mod:`repro.mptcp.path_manager`
or the paper's Netlink path manager from :mod:`repro.core.netlink_pm`.
Connections report their life cycle to ``stack.path_manager`` themselves;
the stack passes on the interface events.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.mptcp.config import MptcpConfig
from repro.mptcp.connection import ConnectionListener, MptcpConnection
from repro.mptcp.options import MpCapableOption, MpJoinOption
from repro.mptcp.path_manager import PassivePathManager, PathManager
from repro.mptcp.scheduler import make_scheduler
from repro.mptcp.token import derive_token, generate_key
from repro.net.addressing import FourTuple, IPAddress
from repro.net.host import Host
from repro.net.interface import Interface
from repro.net.packet import Segment, reset_for
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
        #: The simulation engine.
        self.sim = sim
        #: The host this stack is installed on.
        self.host = host
        #: The MPTCP configuration in effect.
        self.mptcp_config = config if config is not None else MptcpConfig()
        self.mptcp_config.validate()
        #: Stack name (defaults to the host name).
        self.name = name if name is not None else host.name
        self._rng = sim.random.substream(f"stack:{self.name}")

        self._listeners: dict[int, ListenerFactory] = {}
        self._sockets: dict[FourTuple, TcpSocket] = {}
        # Mirror of _sockets keyed by the plain-int tuple an incoming
        # segment produces, so the per-segment demux skips FourTuple
        # construction and hashing entirely.
        self._demux: dict[tuple, TcpSocket] = {}
        #: Connections that are not yet fully closed (do not mutate).  A
        #: closing connection removes itself from this live list, so a caller
        #: that closes connections while iterating iterates a copy.
        self.connections: list[MptcpConnection] = []
        self._conn_by_token: dict[int, MptcpConnection] = {}
        self._cc_groups: dict[int, CouplingGroup] = {}
        self._used_ports: set[int] = set()

        #: The installed (kernel-side) path manager.
        self.path_manager = path_manager if path_manager is not None else PassivePathManager()
        self.path_manager.attach(self)

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
        #: Every connection that downgraded to plain TCP, closed ones included (do not
        #: mutate).
        self.fallback_connections: list[MptcpConnection] = []
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
    def local_addresses(self) -> list[IPAddress]:
        """Addresses of the host's interfaces that are currently up."""
        return self.host.addresses(only_up=True)

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
            raise ValueError(f"port {port} is already listening on {self.name}")
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
            iface = self.host.route(remote)
            if iface is None:
                raise RuntimeError(f"host {self.host.name} has no usable interface towards {remote}")
            local = iface.address
        else:
            local = IPAddress(local_address)
        port = local_port if local_port is not None else self.allocate_port()
        conn = MptcpConnection(
            stack=self,
            listener=listener,
            scheduler=make_scheduler(self.mptcp_config.scheduler),
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
        raise RuntimeError(f"stack {self.name} ran out of ephemeral ports")

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
            self.mptcp_config.tcp.congestion_control,
            self.mptcp_config.tcp.mss,
            self.mptcp_config.tcp.initial_cwnd_segments,
            self.mptcp_config.tcp.initial_ssthresh_bytes,
            group=group,
        )
        self._used_ports.add(local_port)
        socket = TcpSocket(
            sim=self.sim,
            local_addr=local_address,
            local_port=local_port,
            remote_addr=remote_address,
            remote_port=remote_port,
            # Bound per socket, so a ``host.send`` replaced beforehand intercepts.
            transmit=self.host.send,
            observer=conn,
            config=self.mptcp_config.tcp,
            congestion=congestion,
            name=f"{self.name}:{local_address}:{local_port}",
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
        if capable is None and not self.mptcp_config.allow_fallback:
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
            scheduler=make_scheduler(self.mptcp_config.scheduler),
            local_key=self._generate_local_key(),
            is_client=False,
            remote_address=segment.src,
            remote_port=segment.sport,
        )
        self._register_connection(conn)
        self.connections_accepted += 1
        conn.accept_initial_subflow(segment)

    def _send_reset(self, segment: Segment) -> None:
        reset = reset_for(segment)
        if reset is None:
            return
        self.resets_sent += 1
        if self._trace_conn is not None:
            self._trace_conn.emit(
                self.sim.now, "connection", "reset_sent", self.name,
                {"to": f"{segment.src}:{segment.sport}"},
            )
        self.host.send(reset)

    # ------------------------------------------------------------------
    # connection registry
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
            f"stack {self.name} could not draw a collision-free MPTCP key"
        )

    def _register_connection(self, conn: MptcpConnection) -> None:
        self.connections.append(conn)
        self._conn_by_token[conn.local_token] = conn

    def notify_connection_fallback(self, conn: MptcpConnection) -> None:
        """Called by a connection when it downgrades to plain TCP.

        The path manager is *not* told: the connection stops reporting to
        it (see :meth:`MptcpConnection._enter_fallback`).
        """
        self.connections_fallen_back += 1
        self.fallback_connections.append(conn)

    def notify_connection_closed(self, conn: MptcpConnection) -> None:
        """Called when the connection fully terminates."""
        if conn in self.connections:
            self.connections.remove(conn)
        self._conn_by_token.pop(conn.local_token, None)
        self._cc_groups.pop(conn.local_token, None)
        # Fold the departing connection's socket totals into the retired
        # accumulators so counters() keeps counting closed connections.
        for flow in conn.subflows:
            sock = flow.socket
            self._retired_retransmissions += sock.total_retransmissions
            self._retired_segments_sent += sock.segments_sent
            self._retired_segments_received += sock.segments_received
        self.path_manager.on_connection_closed(conn)

    # ------------------------------------------------------------------
    # interface events (Host -> stack -> path manager)
    # ------------------------------------------------------------------
    def on_local_address_up(self, iface: Interface) -> None:
        """A local interface came up."""
        if self._trace_pm is not None:
            self._trace_pm.emit(
                self.sim.now, "pm", "address_up", self.name,
                {"iface": iface.full_name},
            )
        self.path_manager.on_local_address_up(iface)

    def on_local_address_down(self, iface: Interface) -> None:
        """A local interface went down."""
        if self._trace_pm is not None:
            self._trace_pm.emit(
                self.sim.now, "pm", "address_down", self.name,
                {"iface": iface.full_name},
            )
        self.path_manager.on_local_address_down(iface)

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
        for conn in self.connections:
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
            f"<MptcpStack {self.name} connections={len(self.connections)} "
            f"sockets={len(self._sockets)} pm={self.path_manager.name}>"
        )
