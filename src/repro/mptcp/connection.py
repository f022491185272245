"""The MPTCP connection: data-sequence space, scheduling and reinjection.

An :class:`MptcpConnection` owns a set of :class:`~repro.mptcp.subflow.Subflow`
objects and implements everything RFC 6824 layers on top of them:

* a single connection-level byte stream with its own (data) sequence space,
  carried in DSS options as mappings and cumulative data acknowledgements;
* a packet scheduler that decides which established subflow transmits the
  next chunk (lowest RTT by default);
* reinjection: data stranded on a subflow that timed out or died is
  rescheduled on the remaining subflows (the behaviour §4.3 of the paper
  analyses in detail);
* backup-flag semantics, ADD_ADDR/REMOVE_ADDR bookkeeping and DATA_FIN
  based connection teardown.

The connection is also the :class:`~repro.tcp.socket.SubflowObserver` of all
its subflows' sockets: it supplies the MPTCP options for every segment they
emit and consumes the options of every segment they receive.
"""

from __future__ import annotations

import errno
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.mptcp.options import (
    AddAddrOption,
    DssOption,
    MpCapableOption,
    MpFailOption,
    MpFastcloseOption,
    MpJoinOption,
    MpPrioOption,
)
from repro.mptcp.scheduler import Scheduler
from repro.mptcp.subflow import Subflow, SubflowOrigin
from repro.mptcp.token import derive_token
from repro.net.addressing import IPAddress
from repro.net.packet import Segment
from repro.sim.timers import Timer
from repro.tcp.buffers import ReceiveReassembly
from repro.tcp.options import SackOption
from repro.tcp.socket import SubflowObserver, TcpSocket, TcpState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mptcp.stack import MptcpStack

_SYN_BIT = 0x02


@dataclass(frozen=True)
class DssMapping:
    """A data-sequence mapping attached to one transmitted segment."""

    data_seq: int
    length: int

    @property
    def end(self) -> int:
        """Data-sequence number one past the mapped range."""
        return self.data_seq + self.length


@dataclass(frozen=True)
class ConnectionInfo:
    """Connection-level state exposed through the Netlink path manager."""

    token: int
    established: bool
    closed: bool
    data_una: int
    data_next: int
    data_rcv_nxt: int
    subflow_count: int
    bytes_sent: int
    bytes_received: int

    def as_dict(self) -> dict:
        """Plain-dict form used by the Netlink codec."""
        return {
            "token": self.token,
            "established": self.established,
            "closed": self.closed,
            "data_una": self.data_una,
            "data_next": self.data_next,
            "data_rcv_nxt": self.data_rcv_nxt,
            "subflow_count": self.subflow_count,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }


class ConnectionListener:
    """Application-side callbacks.  Default implementations do nothing."""

    def on_connection_established(self, conn: "MptcpConnection") -> None:
        """The initial subflow completed its handshake."""

    def on_data(self, conn: "MptcpConnection", new_bytes: int) -> None:
        """``new_bytes`` of in-order connection-level data were delivered."""

    def on_data_acked(self, conn: "MptcpConnection", data_una: int) -> None:
        """The peer's cumulative data acknowledgement advanced."""

    def on_connection_finished(self, conn: "MptcpConnection") -> None:
        """The peer's DATA_FIN was received and all its data delivered."""

    def on_connection_closed(self, conn: "MptcpConnection") -> None:
        """The connection is fully closed (all subflows gone)."""


class MptcpConnection(SubflowObserver):
    """One Multipath TCP connection."""

    def __init__(
        self,
        stack: "MptcpStack",
        listener: Optional[ConnectionListener],
        scheduler: Scheduler,
        local_key: int,
        is_client: bool,
        remote_address: IPAddress,
        remote_port: int,
    ) -> None:
        self._stack = stack
        self._sim = stack.sim
        self._listener = listener if listener is not None else ConnectionListener()
        self._scheduler = scheduler
        self._config = stack.mptcp_config
        self._mss = self._config.tcp.mss
        self.is_client = is_client

        self.local_key = local_key
        self.local_token = derive_token(local_key)
        self.remote_key: Optional[int] = None
        self.remote_token: Optional[int] = None
        self.remote_address = IPAddress(remote_address)
        self.remote_port = int(remote_port)

        # Live subflows only: closed subflows are compacted out so the
        # scheduler's per-chunk scan stays proportional to the number of
        # usable paths, not to the connection's lifetime churn.
        self._subflows: list[Subflow] = []
        # Every subflow ever created, in id order.  Kept for traces and
        # post-run analysis; ids are never reused, so ``subflow_by_id``
        # stays stable across compactions.
        self._subflow_history: list[Subflow] = []
        self._subflow_by_socket: dict[int, Subflow] = {}
        self._next_subflow_id = 1

        # Send side (connection-level data sequence space, starting at 0).
        self._data_write_nxt = 0
        self._data_una = 0
        self._unassigned: deque[tuple[int, int]] = deque()
        self._bytes_sent_total = 0

        # Receive side.
        self._data_reassembly = ReceiveReassembly(0)
        # (data_ack, (DssOption,)) pair reused across pure acks: the option
        # is frozen and options tuples are immutable, so one instance can
        # ride many segments until the data-level ack advances.
        self._dss_ack_cache: tuple = (None, None)
        self._bytes_received_total = 0
        self._remote_fin_seq: Optional[int] = None
        self._remote_fin_consumed = False

        # Connection-level (meta) retransmission timer: repairs data-level
        # stalls by reinjecting the oldest unacknowledged data on whatever
        # subflow is available.  Without it, data stranded on a subflow that
        # silently died (e.g. behind a NAT that lost its state) would never
        # reach the peer even though other subflows work fine.
        self._meta_rtx_timer = Timer(self._sim, self._on_meta_rto, name="meta-rtx")
        self._meta_backoff = 0
        self.meta_rto_expirations = 0

        # Close handling.
        self._close_requested = False
        self._data_fin_seq: Optional[int] = None
        self._data_fin_acked = False
        self._data_fin_timer = Timer(self._sim, self._retransmit_data_fin, name="data-fin")
        self._aborted = False
        self.closed = False
        self.established = False
        self.established_at: Optional[float] = None
        self.closed_at: Optional[float] = None

        # Address bookkeeping (the paper's add_addr / rem_addr events).
        self._remote_addresses: dict[int, tuple[IPAddress, int]] = {}
        self._announced_local_ids: dict[int, IPAddress] = {}
        self._pending_options: list = []

        # Plain-TCP fallback state (RFC 6824 §3.6): entered when MP_CAPABLE
        # was stripped during the handshake or when DSS signalling broke on
        # a single-subflow connection.  A fallen-back connection runs one
        # subflow, emits no MPTCP options, and treats the subflow's byte
        # stream as the connection's byte stream (the "infinite mapping").
        self.is_fallback = False
        self.fallback_reason: Optional[str] = None
        self.fell_back_at: Optional[float] = None
        self.fallback_bytes_sent = 0
        self.fallback_bytes_received = 0
        # Subflow-level rcv_nxt of the initial subflow as of the last data
        # event — the switch point from which the infinite mapping continues
        # the connection-level stream.
        self._fallback_rx_seen: Optional[int] = None
        self._mp_fail_sent = False

        # Structured tracing (repro.obs): per-category channels cached
        # once so every hot-path emit site is a single None check.
        log = self._sim.event_log
        if log is None:
            self._trace_conn = None
            self._trace_subflow = None
            self._trace_sched = None
            self._trace_fallback = None
            self._trace_id = ""
        else:
            self._trace_conn = log.channel("connection")
            self._trace_subflow = log.channel("subflow")
            self._trace_sched = log.channel("scheduler")
            self._trace_fallback = log.channel("fallback")
            self._trace_id = f"{stack.name}/conn-{self.local_token:08x}"
            if self._trace_conn is not None:
                self._trace_conn.emit(
                    self._sim.now, "connection", "created", self._trace_id,
                    {"role": "client" if is_client else "server"},
                )

    # ------------------------------------------------------------------
    # identity / introspection
    # ------------------------------------------------------------------
    @property
    def stack(self) -> "MptcpStack":
        """The owning MPTCP stack."""
        return self._stack

    @property
    def listener(self) -> ConnectionListener:
        """The application listener attached to this connection."""
        return self._listener

    @property
    def subflows(self) -> list[Subflow]:
        """All subflows ever created for this connection (do not mutate)."""
        return self._subflow_history

    @property
    def live_subflows(self) -> list[Subflow]:
        """The not-yet-closed subflows (the scheduler's working set)."""
        return self._subflows

    @property
    def subflows_created(self) -> int:
        """Total number of subflows ever created on this connection."""
        return len(self._subflow_history)

    @property
    def active_subflows(self) -> list[Subflow]:
        """Subflows that are currently usable by the scheduler."""
        return [flow for flow in self._subflows if flow.is_usable]

    @property
    def initial_subflow(self) -> Optional[Subflow]:
        """The MP_CAPABLE subflow (looked up in the full history, so it is
        still reachable after it closed — Figure 2a's failover analysis
        needs exactly that)."""
        for flow in self._subflow_history:
            if flow.is_initial:
                return flow
        return None

    @property
    def data_una(self) -> int:
        """Connection-level ``snd_una`` (cumulative data acknowledged by the peer)."""
        return self._data_una

    @property
    def data_next(self) -> int:
        """Next connection-level sequence number the application will write at."""
        return self._data_write_nxt

    @property
    def data_rcv_nxt(self) -> int:
        """Next expected connection-level receive sequence number."""
        return self._data_reassembly.rcv_nxt

    @property
    def bytes_received(self) -> int:
        """In-order connection-level bytes delivered to the application."""
        return self._bytes_received_total

    @property
    def bytes_sent(self) -> int:
        """Connection-level bytes written by the application."""
        return self._bytes_sent_total

    @property
    def remote_addresses(self) -> dict[int, tuple[IPAddress, int]]:
        """Addresses advertised by the peer (address id -> (address, port))."""
        return dict(self._remote_addresses)

    def _enter_fallback(self, reason: str, flow: Optional[Subflow] = None) -> None:
        """Downgrade this connection to plain TCP (RFC 6824 §3.6).

        From here on the single surviving subflow carries the connection's
        byte stream directly: no DSS options are emitted, the scheduler and
        the meta retransmission timer are bypassed, MP_JOINs are refused
        and the subflow-level FIN doubles as the end-of-stream signal.
        """
        if self.is_fallback or self.closed:
            return
        self.is_fallback = True
        self.fallback_reason = reason
        self.fell_back_at = self._sim.now
        carrier = flow
        if carrier is None:
            carrier = next((f for f in self._subflows if not f.is_closed), None)
        if carrier is not None:
            # The subflow's cumulative acknowledgement is now the data-level
            # acknowledgement: everything below the oldest outstanding
            # mapping was delivered, even if the covering DSS data acks were
            # corrupted in transit before the downgrade.
            outstanding = [
                m for m in carrier.socket.outstanding_metadata() if isinstance(m, DssMapping)
            ]
            floor = min((m.data_seq for m in outstanding), default=self._data_write_nxt)
            sent_hwm = max((m.end for m in outstanding), default=floor)
            if self._unassigned:
                # Drop queued duplicates of already-transmitted ranges (meta
                # RTO reinjections): resending them without a mapping would
                # append phantom bytes to the peer's fallback stream.
                trimmed: deque[tuple[int, int]] = deque()
                for start, end in self._unassigned:
                    start = max(start, sent_hwm)
                    if start < end:
                        trimmed.append((start, end))
                self._unassigned = trimmed
            if floor > self._data_una:
                self._process_data_ack(floor)
        self._meta_rtx_timer.stop()
        if self._trace_fallback is not None:
            self._trace_fallback.emit(
                self._sim.now, "fallback", "fallback", self._trace_id,
                {"reason": reason},
            )
        self._stack.notify_connection_fallback(self)

    def subflow_by_id(self, subflow_id: int) -> Optional[Subflow]:
        """Look up a subflow by its connection-local identifier.

        Resolves closed subflows too: ids are monotonic and never reused,
        so traces and controllers can keep referring to departed subflows
        after compaction.
        """
        for flow in self._subflow_history:
            if flow.id == subflow_id:
                return flow
        return None

    def info(self) -> ConnectionInfo:
        """Connection-level state snapshot (the Netlink ``GetConnInfo`` reply)."""
        return ConnectionInfo(
            token=self.local_token,
            established=self.established,
            closed=self.closed,
            data_una=self._data_una,
            data_next=self._data_write_nxt,
            data_rcv_nxt=self.data_rcv_nxt,
            subflow_count=len(self.active_subflows),
            bytes_sent=self._bytes_sent_total,
            bytes_received=self._bytes_received_total,
        )

    # ------------------------------------------------------------------
    # application API
    # ------------------------------------------------------------------
    def send(self, length: int) -> tuple[int, int]:
        """Write ``length`` bytes of application data.

        Returns the data-sequence range ``(start, end)`` the bytes occupy —
        applications use it to correlate delivery (e.g. the streaming app's
        block boundaries).
        """
        if length <= 0:
            raise ValueError(f"length must be positive, got {length!r}")
        if self.closed or self._close_requested:
            raise RuntimeError("cannot send on a closing MPTCP connection")
        start = self._data_write_nxt
        end = start + length
        self._data_write_nxt = end
        self._bytes_sent_total += length
        self._unassigned.append((start, end))
        self._push_data()
        return start, end

    def close(self) -> None:
        """Finish sending: emit a DATA_FIN once all written data is acknowledged."""
        if self.closed or self._close_requested:
            return
        self._close_requested = True
        self._maybe_send_data_fin()

    def abort(self, reason: int = errno.ECONNABORTED, notify_peer: bool = True) -> None:
        """Tear the connection down immediately (all subflows are reset).

        ``notify_peer`` sends an MP_FASTCLOSE first so the remote meta
        socket is torn down as well instead of lingering with dead subflows.
        """
        if self.closed:
            return
        self._aborted = True
        if notify_peer and not self.is_fallback:
            capable = self._transmission_capable_subflows()
            if capable:
                self._pending_options.append(MpFastcloseOption(receiver_key=self.remote_key or 0))
                capable[0].socket.send_ack()
        for flow in list(self._subflows):
            if not flow.is_closed:
                flow.socket.abort(reason)
        self._finalise_close()

    # ------------------------------------------------------------------
    # subflow management (used by path managers and the Netlink commands)
    # ------------------------------------------------------------------
    def open_initial_subflow(self, local_address: IPAddress, local_port: int) -> Subflow:
        """Create and connect the MP_CAPABLE subflow (client side)."""
        socket = self._stack.create_subflow_socket(
            self, local_address, local_port, self.remote_address, self.remote_port
        )
        flow = self._register_subflow(socket, SubflowOrigin.INITIAL, backup=False)
        self._stack.notify_connection_created(self, flow)
        socket.connect()
        return flow

    def accept_initial_subflow(self, segment: Segment) -> Subflow:
        """Create the server-side initial subflow from a received SYN.

        A SYN without MP_CAPABLE (stripped in transit by a middlebox) is
        served as a plain-TCP fallback connection when the configuration
        allows it; the SYN/ACK then carries no MPTCP options at all.
        """
        capable = segment.find_option(MpCapableOption)
        if capable is None:
            if not self._config.allow_fallback:
                raise ValueError("initial SYN carries no MP_CAPABLE option")
            self._enter_fallback("mp_capable_stripped")
        else:
            self._learn_remote_key(capable.sender_key)
        socket = self._stack.create_subflow_socket(
            self, segment.dst, segment.dport, segment.src, segment.sport
        )
        flow = self._register_subflow(socket, SubflowOrigin.INITIAL, backup=False)
        self._stack.notify_connection_created(self, flow)
        socket.handle_segment(segment)
        return flow

    def create_subflow(
        self,
        local_address: IPAddress,
        remote_address: Optional[IPAddress] = None,
        remote_port: Optional[int] = None,
        local_port: Optional[int] = None,
        backup: bool = False,
        origin: SubflowOrigin = SubflowOrigin.CONTROLLER,
    ) -> Optional[Subflow]:
        """Create an additional (MP_JOIN) subflow from an arbitrary four-tuple.

        This is the operation the paper's Netlink ``create subflow`` command
        performs.  Returns ``None`` when the connection cannot accept more
        subflows (not established yet, closing, or at the configured cap).
        """
        if self.closed or self._close_requested or not self.established or self.remote_token is None:
            return None
        if self.is_fallback:
            # A fallen-back connection is plain TCP: no additional subflows.
            return None
        if len(self.active_subflows) >= self._config.max_subflows:
            return None
        remote_addr = IPAddress(remote_address) if remote_address is not None else self.remote_address
        rport = remote_port if remote_port is not None else self.remote_port
        lport = local_port if local_port is not None else self._stack.allocate_port()
        socket = self._stack.create_subflow_socket(self, local_address, lport, remote_addr, rport)
        flow = self._register_subflow(socket, origin, backup=backup)
        socket.connect()
        return flow

    def accept_join(self, segment: Segment) -> Optional[Subflow]:
        """Create a passive subflow from a received MP_JOIN SYN (server side)."""
        if self.is_fallback:
            # Plain TCP carries no data-sequence signalling, so an extra
            # subflow could never be synchronised: refuse the join (the
            # stack answers with a RST, like the Linux fallback path).
            return None
        join = segment.find_option(MpJoinOption)
        if join is None:
            return None
        if len(self.active_subflows) >= self._config.max_subflows:
            return None
        socket = self._stack.create_subflow_socket(
            self, segment.dst, segment.dport, segment.src, segment.sport
        )
        flow = self._register_subflow(socket, SubflowOrigin.PEER, backup=join.backup)
        socket.handle_segment(segment)
        return flow

    def remove_subflow(self, flow: Subflow, reset: bool = True) -> None:
        """Remove a subflow (the Netlink ``remove subflow`` command).

        ``reset=True`` sends a RST, which is how the Linux path-manager
        interface removes subflows; ``reset=False`` closes it gracefully.
        """
        if flow.is_closed:
            return
        if reset:
            flow.socket.abort(errno.ECONNRESET)
        else:
            flow.socket.close()

    def set_backup(self, flow: Subflow, backup: bool) -> None:
        """Change a subflow's backup priority and signal it with MP_PRIO."""
        flow.backup = backup
        flow.socket.backup = backup
        self._pending_options.append(MpPrioOption(backup=backup))
        if flow.is_established:
            flow.socket.send_ack()

    def _register_subflow(self, socket: TcpSocket, origin: SubflowOrigin, backup: bool) -> Subflow:
        flow = Subflow(self._next_subflow_id, socket, origin, backup=backup)
        self._next_subflow_id += 1
        self._subflows.append(flow)
        self._subflow_history.append(flow)
        self._subflow_by_socket[id(socket)] = flow
        if self._trace_subflow is not None:
            self._trace_subflow.emit(
                self._sim.now, "subflow", "created", self._trace_id,
                {"subflow": flow.id, "origin": origin.value, "backup": backup},
            )
        return flow

    def _compact_subflow(self, flow: Subflow) -> None:
        """Drop a closed subflow from the live list (history keeps it)."""
        try:
            self._subflows.remove(flow)
        except ValueError:
            pass
        self._subflow_by_socket.pop(id(flow.socket), None)

    def _subflow_for(self, socket: TcpSocket) -> Optional[Subflow]:
        return self._subflow_by_socket.get(id(socket))

    # ------------------------------------------------------------------
    # SubflowObserver: options supplied to outgoing segments
    # ------------------------------------------------------------------
    def handshake_options(self, sock: TcpSocket, kind: str) -> tuple:
        flow = self._subflow_for(sock)
        if flow is None:
            return ()
        if self.is_fallback:
            # Plain TCP: the SYN/ACK of a downgraded passive open and the
            # third ACK of a downgraded active open carry no MPTCP options.
            return ()
        if flow.is_initial:
            if kind == "syn":
                return (MpCapableOption(sender_key=self.local_key),)
            if kind == "synack":
                return (MpCapableOption(sender_key=self.local_key),)
            # Third ACK: echo both keys (receiver key once known).
            return (MpCapableOption(sender_key=self.local_key, receiver_key=self.remote_key),)
        token = self.remote_token if self.remote_token is not None else 0
        # The wire field is 8 bits and no receiver reads it, so the
        # connection's ever-growing subflow id is emitted modulo 256.
        address_id = flow.id & 0xFF
        if kind == "synack":
            token = self.local_token
        return (MpJoinOption(token=token, address_id=address_id, backup=flow.backup),)

    def data_options(self, sock: TcpSocket, metadata: Any) -> tuple:
        if self.is_fallback:
            # Infinite mapping: payload rides the subflow sequence space
            # alone.  (Pending options still drain — MP_FAIL in particular.)
            return tuple(self._drain_pending_options())
        mapping: Optional[DssMapping] = metadata
        options: list = []
        if mapping is not None:
            options.append(
                DssOption(
                    data_seq=mapping.data_seq,
                    data_len=mapping.length,
                    data_ack=self._data_ack_value(),
                )
            )
        else:
            options.append(self._ack_only_dss()[0])
        options.extend(self._drain_pending_options())
        return tuple(options)

    def ack_options(self, sock: TcpSocket) -> tuple:
        if self.is_fallback:
            return tuple(self._drain_pending_options())
        if self._data_fin_seq is not None and not self._data_fin_acked:
            # Keep signalling the DATA_FIN until the peer's data ack covers
            # it, like TCP keeps the FIN bit on retransmitted segments.
            dss = DssOption(
                data_seq=self._data_fin_seq,
                data_ack=self._data_ack_value(),
                data_fin=True,
            )
        else:
            cached = self._ack_only_dss()
            if not self._pending_options:
                return cached
            dss = cached[0]
        if not self._pending_options:
            return (dss,)
        options: list = [dss]
        options.extend(self._drain_pending_options())
        return tuple(options)

    def _drain_pending_options(self) -> list:
        if not self._pending_options:
            return []
        pending = self._pending_options
        self._pending_options = []
        return pending

    def _data_ack_value(self) -> int:
        ack = self._data_reassembly.rcv_nxt
        if self._remote_fin_consumed:
            ack += 1
        return ack

    def _ack_only_dss(self) -> tuple:
        """A 1-tuple ``(DssOption(data_ack=...),)`` for the current data ack.

        Pure acks dominate the option traffic; the frozen option (and the
        options tuple wrapping it) is cached until the ack value advances.
        """
        ack = self._data_reassembly.rcv_nxt
        if self._remote_fin_consumed:
            ack += 1
        cached_ack, cached = self._dss_ack_cache
        if ack != cached_ack:
            cached = (DssOption(data_ack=ack),)
            self._dss_ack_cache = (ack, cached)
        return cached

    # ------------------------------------------------------------------
    # SubflowObserver: incoming options and data
    # ------------------------------------------------------------------
    def segment_options_received(self, sock: TcpSocket, segment: Segment) -> None:
        options = segment.options_by_type
        dss = options.get(DssOption)
        if (
            dss is not None
            and not segment._flag_bits & _SYN_BIT
            and (len(options) == 1 or (len(options) == 2 and SackOption in options))
        ):
            # Steady state: a non-SYN segment carrying a DSS and at most a
            # SACK beside it.  None of the handshake, fallback, address or
            # priority signalling below applies, so only the DSS is read.
            if not self.is_fallback:
                if dss.data_ack is not None:
                    self._process_data_ack(dss.data_ack)
                if dss.data_fin and dss.data_seq is not None:
                    self._process_data_fin(dss, self._subflow_for(sock))
            return
        flow = self._subflow_for(sock)
        capable = options.get(MpCapableOption)
        if capable is not None and self.remote_key is None and not self.is_fallback:
            self._learn_remote_key(capable.sender_key)
        if (
            not self.is_fallback
            and self._config.allow_fallback
            and flow is not None
            and flow.is_initial
            and capable is None
            and segment.is_ack
            and not segment.is_rst
        ):
            if segment.is_syn and sock.state == TcpState.SYN_SENT:
                # SYN/ACK stripped of MP_CAPABLE: a middlebox on the path
                # (or the peer itself) does not speak MPTCP — downgrade to
                # plain TCP instead of resetting (RFC 6824 §3.6).
                self._enter_fallback("mp_capable_stripped", flow)
            elif (
                not segment.is_syn
                and sock.state == TcpState.SYN_RECEIVED
                and dss is None
            ):
                # Handshake-completing ACK without any MPTCP signalling:
                # the client fell back (our SYN/ACK's option was stripped
                # in transit) — follow it down to plain TCP.  A DSS-bearing
                # segment in this state is *not* a downgrade: it is an
                # MPTCP client whose third ACK was lost, with data already
                # completing the handshake (every segment an MPTCP peer
                # emits carries at least a DSS).
                self._enter_fallback("mp_capable_stripped", flow)
        fail = options.get(MpFailOption)
        if fail is not None and not self.is_fallback and self._config.allow_fallback:
            # The peer failed our DSS checksums: infinite-mapping fallback.
            self._enter_fallback("dss_checksum_fail", flow)
        if self.is_fallback:
            # Plain TCP from here on: DSS acks, DATA_FIN, address and
            # priority signalling are void.  (A stale mapped segment from a
            # peer that has not yet processed our MP_FAIL is still honoured
            # in on_data.)
            return
        if dss is not None:
            if dss.data_ack is not None:
                self._process_data_ack(dss.data_ack)
            if dss.data_fin and dss.data_seq is not None:
                self._process_data_fin(dss, flow)
        fastclose = options.get(MpFastcloseOption)
        if fastclose is not None and not self.closed:
            # The peer aborted the whole MPTCP connection.
            self.abort(errno.ECONNRESET, notify_peer=False)
            return
        add_addr = options.get(AddAddrOption)
        if add_addr is not None:
            self._process_add_addr(add_addr)
        prio = options.get(MpPrioOption)
        if prio is not None and flow is not None:
            flow.backup = prio.backup
            flow.socket.backup = prio.backup

    def _process_data_fin(self, dss: DssOption, flow: Optional[Subflow]) -> None:
        # The DATA_FIN occupies the data-sequence slot right after the
        # peer's last byte (``data_seq`` when no mapping is attached, the
        # end of the mapping otherwise).
        self._remote_fin_seq = dss.mapping_end if dss.has_mapping else dss.data_seq
        self._check_remote_data_fin(flow)

    def on_data(self, sock: TcpSocket, segment: Segment, new_bytes: int) -> None:
        flow = self._subflow_for(sock)
        if self.is_fallback:
            self._fallback_receive(sock, segment, flow)
            return
        dss = segment.options_by_type.get(DssOption)
        if dss is None or not dss.has_mapping:
            if (
                segment.payload_len > 0
                and self._config.allow_fallback
                and len(self._subflow_history) == 1
                and flow is not None
                and flow.is_initial
            ):
                # A data segment whose DSS mapping was corrupted in transit,
                # on the only subflow this connection ever had: degrade to
                # the infinite mapping instead of stalling, and tell the
                # sender with MP_FAIL (RFC 6824 §3.6).  With other subflows
                # around, the mapping-less data stays ignored and the meta
                # retransmission timer reinjects the range on a healthy
                # subflow, exactly as before the fallback path existed.
                self._enter_fallback("dss_checksum_fail", flow)
                self._send_mp_fail()
                self._fallback_receive(sock, segment, flow)
            return
        before = self._data_reassembly.rcv_nxt
        self._data_reassembly.register(dss.data_seq, dss.data_len)
        advanced = self._data_reassembly.rcv_nxt - before
        if advanced > 0:
            self._bytes_received_total += advanced
            self._listener.on_data(self, advanced)
        if flow is not None and flow.is_initial and len(self._subflow_history) == 1:
            # Keep the fallback switch point current: if a later segment's
            # DSS is corrupted, the infinite mapping continues the stream
            # from exactly the subflow bytes consumed so far.
            self._fallback_rx_seen = sock.rcv_nxt
        self._check_remote_data_fin(flow)

    def _send_mp_fail(self) -> None:
        """Queue a one-shot MP_FAIL; the ACK for the offending data segment
        (which the socket emits right after this callback) carries it."""
        if self._mp_fail_sent:
            return
        self._mp_fail_sent = True
        self._pending_options.append(MpFailOption(data_seq=self._data_reassembly.rcv_nxt))

    def _fallback_receive(self, sock: TcpSocket, segment: Segment, flow: Optional[Subflow]) -> None:
        """Deliver one data segment under the infinite mapping.

        Mapping-less payload continues the connection stream from the
        subflow-level in-order delivery point; a straggling mapped segment
        (sent before the peer processed our MP_FAIL) is honoured via its
        explicit mapping, which also absorbs duplicated ranges.
        """
        if flow is None or not flow.is_initial:
            return
        dss = segment.find_option(DssOption)
        before = self._data_reassembly.rcv_nxt
        if dss is not None and dss.has_mapping:
            self._data_reassembly.register(dss.data_seq, dss.data_len)
        else:
            seen = (
                self._fallback_rx_seen
                if self._fallback_rx_seen is not None
                else sock.rcv_nxt - segment.payload_len
            )
            advance = sock.rcv_nxt - seen
            if advance > 0:
                self._data_reassembly.register(before, advance)
        self._fallback_rx_seen = sock.rcv_nxt
        advanced = self._data_reassembly.rcv_nxt - before
        if advanced > 0:
            self._bytes_received_total += advanced
            self.fallback_bytes_received += advanced
            self._listener.on_data(self, advanced)
        self._check_remote_data_fin(flow)

    def on_acked(self, sock: TcpSocket, metadata_list: list, newly_acked: int) -> None:
        # Subflow-level acknowledgement.  Data-level progress is tracked via
        # the DSS data_ack (already processed); this hook only tries to push
        # more data into the window that just opened.  In fallback there is
        # no DSS: the subflow's cumulative acknowledgement *is* the data
        # acknowledgement (the mappings stay attached as local metadata).
        if self.is_fallback:
            tops = [m.end for m in metadata_list if isinstance(m, DssMapping)]
            if tops:
                self._process_data_ack(max(tops))
        self._push_data()

    def on_send_space(self, sock: TcpSocket) -> None:
        self._push_data()

    # ------------------------------------------------------------------
    # SubflowObserver: life-cycle events
    # ------------------------------------------------------------------
    def on_established(self, sock: TcpSocket) -> None:
        flow = self._subflow_for(sock)
        if flow is None:
            return
        flow.mark_established(self._sim.now)
        if flow.is_initial and self._fallback_rx_seen is None:
            self._fallback_rx_seen = sock.rcv_nxt
        if flow.is_initial and not self.established:
            self.established = True
            self.established_at = self._sim.now
            if self._trace_conn is not None:
                self._trace_conn.emit(
                    self._sim.now, "connection", "established", self._trace_id,
                    {"fallback": self.is_fallback},
                )
            self._announce_local_addresses(flow)
            self._stack.notify_connection_established(self)
            self._listener.on_connection_established(self)
        if self._trace_subflow is not None:
            self._trace_subflow.emit(
                self._sim.now, "subflow", "established", self._trace_id,
                {"subflow": flow.id},
            )
        self._stack.notify_subflow_established(self, flow)
        self._push_data()

    def on_rto_expired(self, sock: TcpSocket, rto: float, consecutive: int) -> None:
        flow = self._subflow_for(sock)
        if flow is None:
            return
        self._stack.notify_rto_timeout(self, flow, rto, consecutive)
        # Opportunistic reinjection, Linux-style: only the oldest
        # outstanding mapping of the timed-out subflow is handed to the
        # other subflows.  Reinjecting the whole outstanding window on
        # every expiry would flood the healthy paths with duplicates.
        self._reinject_outstanding(flow, head_only=True)
        self._push_data()

    def on_fin_received(self, sock: TcpSocket) -> None:
        # Subflow-level FIN: nothing to do at the connection level — the
        # DATA_FIN drives connection teardown — except in fallback, where
        # plain-TCP semantics make the subflow FIN the end-of-stream signal.
        if not self.is_fallback:
            return
        flow = self._subflow_for(sock)
        if flow is None or not flow.is_initial:
            return
        # Absorb the FIN's sequence slot so late duplicates cannot be
        # mistaken for one more payload byte by the infinite mapping.
        self._fallback_rx_seen = sock.rcv_nxt
        if not self._remote_fin_consumed:
            self._remote_fin_consumed = True
            self._listener.on_connection_finished(self)

    def on_closed(self, sock: TcpSocket, reason: int) -> None:
        flow = self._subflow_for(sock)
        if flow is None:
            return
        # "Already closed" must look at the subflow-level mark only: the
        # socket itself is always CLOSED by the time this callback runs.
        already_closed = flow.closed_at is not None
        flow.mark_closed(self._sim.now, reason)
        self._compact_subflow(flow)
        self._stack.unregister_socket(sock)
        if not already_closed:
            if self._trace_subflow is not None:
                self._trace_subflow.emit(
                    self._sim.now, "subflow", "closed", self._trace_id,
                    {"subflow": flow.id, "reason": reason},
                )
            self._stack.notify_subflow_closed(self, flow, reason)
        if not self.closed:
            self._reinject_outstanding(flow)
            self._push_data()
        if all(f.is_closed for f in self._subflows):
            # In fallback the connection *is* its single subflow: when that
            # subflow is gone (cleanly or by reset), so is the connection.
            if self._close_requested or self._remote_fin_consumed or self._aborted or self.is_fallback:
                self._finalise_close()

    # ------------------------------------------------------------------
    # data-plane internals
    # ------------------------------------------------------------------
    def _push_data(self) -> None:
        """Hand unassigned data to the subflows until the windows are shut.

        One scheduler pass per flight: while ``pick`` says its subflow was
        the only one with window (``alone``), the loop sends on it out of
        that window and stops when it is spent.  Asking per chunk would
        answer the same: inside one call only the loop's own ``send_data(n)``
        changes any subflow's usability, backup flag, ``srtt`` or window
        (links only schedule; nothing calls back into a socket
        synchronously), and it lowers that socket's window by ``n``."""
        if self.closed:
            return
        flow, window, alone = None, 0, False
        while self._unassigned:
            start, end = self._unassigned[0]
            if end <= self._data_una:
                self._unassigned.popleft()
                continue
            if start < self._data_una:
                start = self._data_una
            chunk = end - start
            if chunk > self._mss:
                chunk = self._mss
            if self.is_fallback:
                # Scheduler bypass: plain TCP has exactly one path.
                flow = next((f for f in self._subflows if f.is_usable), None)
                if flow is None:
                    break
                window = flow.socket.available_window()
            elif not alone:
                picked = self._scheduler.pick(self._subflows)
                if picked is None:
                    break
                flow, window, alone = picked
            if window <= 0:
                break
            send_len = chunk if chunk <= window else window
            mapping = DssMapping(start, send_len)
            if not flow.socket.send_data(send_len, mapping):
                break
            window -= send_len
            if self._trace_sched is not None:
                self._trace_sched.emit(
                    self._sim.now, "scheduler", "select", self._trace_id,
                    {"subflow": flow.id, "data_seq": start, "length": send_len},
                )
            flow.bytes_scheduled += send_len
            if self.is_fallback:
                flow.fallback_bytes += send_len
                self.fallback_bytes_sent += send_len
            new_start = start + send_len
            if new_start >= end:
                self._unassigned.popleft()
            else:
                self._unassigned[0] = (new_start, end)
        if not self._meta_rtx_timer.armed:
            self._restart_meta_timer()
        self._maybe_send_data_fin()

    # -- connection-level retransmission timer --------------------------
    def _restart_meta_timer(self) -> None:
        """(Re)arm or stop the meta retransmission timer.

        The timer runs while connection-level data is outstanding.  Its
        period is never shorter than the slowest active subflow's RTO: the
        subflows get the first chance to repair their own losses, and the
        meta timer only steps in when a path is stuck for good.
        """
        if self.closed or self.is_fallback:
            # Fallback: the single subflow's own RTO is the only repair
            # mechanism, like plain TCP — a meta reinjection would append
            # duplicate bytes to the peer's infinite-mapping stream.
            self._meta_rtx_timer.stop()
            return
        if self._data_una >= self._data_write_nxt:
            self._meta_rtx_timer.stop()
            return
        # max(1.0, max(rtos, default=...)) folded into one pass.
        period = 1.0
        for flow in self._subflows:
            if flow.is_usable:
                rto = flow.socket.rtt.rto
                if rto > period:
                    period = rto
        if self._meta_backoff:
            period *= 2.0 ** self._meta_backoff
        if period > 60.0:
            period = 60.0
        self._meta_rtx_timer.start(period)

    def _on_meta_rto(self) -> None:
        if self.closed or self.is_fallback or self._data_una >= self._data_write_nxt:
            return
        self.meta_rto_expirations += 1
        self._meta_backoff += 1
        if self._trace_sched is not None:
            self._trace_sched.emit(
                self._sim.now, "scheduler", "meta_rto", self._trace_id,
                {"data_una": self._data_una, "backoff": self._meta_backoff},
            )
        start = self._data_una
        end = min(self._data_write_nxt, start + self._mss)
        if not self._range_pending(start, end):
            self._unassigned.appendleft((start, end))
        self._push_data()
        self._restart_meta_timer()

    def _reinject_outstanding(self, flow: Subflow, head_only: bool = False) -> None:
        """Queue the given subflow's unacknowledged data for other subflows."""
        if self.is_fallback:
            # No other subflows exist, and a duplicate range sent without a
            # mapping would corrupt the peer's infinite-mapping stream.
            return
        mappings = [m for m in flow.socket.outstanding_metadata() if isinstance(m, DssMapping)]
        if head_only and mappings:
            mappings = mappings[:1]
        for mapping in mappings:
            if mapping.end <= self._data_una:
                continue
            start = max(mapping.data_seq, self._data_una)
            if self._range_pending(start, mapping.end):
                continue
            self._unassigned.appendleft((start, mapping.end))
            flow.reinjected_bytes += mapping.end - start
            if self._trace_sched is not None:
                self._trace_sched.emit(
                    self._sim.now, "scheduler", "reinject", self._trace_id,
                    {"subflow": flow.id, "data_seq": start,
                     "length": mapping.end - start},
                )

    def _range_pending(self, start: int, end: int) -> bool:
        for queued_start, queued_end in self._unassigned:
            if queued_start <= start and end <= queued_end:
                return True
        return False

    def _process_data_ack(self, ack: int) -> None:
        write_nxt = self._data_write_nxt
        limit = write_nxt + 1 if self._data_fin_seq is not None else write_nxt
        if ack > limit:
            ack = limit
        if ack <= self._data_una:
            return
        self._data_una = ack if ack <= write_nxt else write_nxt
        self._meta_backoff = 0
        self._restart_meta_timer()
        self._listener.on_data_acked(self, self._data_una)
        if (
            self._data_fin_seq is not None
            and not self._data_fin_acked
            and ack >= self._data_fin_seq + 1
        ):
            self._data_fin_acked = True
            self._data_fin_timer.stop()
            self._close_subflows_gracefully()
        self._maybe_send_data_fin()

    # ------------------------------------------------------------------
    # connection teardown
    # ------------------------------------------------------------------
    def _maybe_send_data_fin(self) -> None:
        if not self._close_requested or self._data_fin_seq is not None or self.closed:
            return
        if self._unassigned or self._data_una < self._data_write_nxt:
            return
        if self.is_fallback:
            # Plain TCP has no DATA_FIN: the subflow-level FIN carries the
            # end-of-stream signal.
            self._close_subflows_gracefully()
            return
        self._data_fin_seq = self._data_write_nxt
        self._transmit_data_fin()
        self._data_fin_timer.start(1.0)

    def _transmission_capable_subflows(self) -> list[Subflow]:
        """Subflows whose socket can still emit segments (not fully closed).

        Connection-level signalling (DATA_FIN, the final data ack) must keep
        working while subflows are in FIN_WAIT/CLOSE_WAIT, exactly like the
        real stack keeps exchanging DSS options during teardown.
        """
        capable = []
        for flow in self._subflows:
            sock = flow.socket
            if sock.closed_at is None and sock.state.value != "CLOSED":
                capable.append(flow)
        return capable

    def _transmit_data_fin(self) -> None:
        capable = self._transmission_capable_subflows()
        if not capable:
            # No subflow left to carry the DATA_FIN: nothing more we can do;
            # closure completes when the subflows are all gone.
            return
        # ack_options() adds the DATA_FIN flag while it is unacknowledged.
        capable[0].socket.send_ack()

    def _retransmit_data_fin(self) -> None:
        if self._data_fin_acked or self.closed:
            return
        self._transmit_data_fin()
        self._data_fin_timer.start(1.0)

    def _check_remote_data_fin(self, flow: Optional[Subflow]) -> None:
        if self._remote_fin_consumed or self._remote_fin_seq is None:
            return
        if self._data_reassembly.rcv_nxt >= self._remote_fin_seq:
            self._remote_fin_consumed = True
            self._listener.on_connection_finished(self)
            capable = self._transmission_capable_subflows()
            if flow is not None and flow in capable:
                flow.socket.send_ack()
            elif capable:
                capable[0].socket.send_ack()

    def _close_subflows_gracefully(self) -> None:
        for flow in list(self._subflows):
            if not flow.is_closed:
                flow.socket.close()

    def _finalise_close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.closed_at = self._sim.now
        self._data_fin_timer.stop()
        self._meta_rtx_timer.stop()
        if self._trace_conn is not None:
            self._trace_conn.emit(
                self._sim.now, "connection", "closed", self._trace_id,
                {"fallback": self.is_fallback, "aborted": self._aborted},
            )
        self._stack.notify_connection_closed(self)
        self._listener.on_connection_closed(self)

    # ------------------------------------------------------------------
    # address handling
    # ------------------------------------------------------------------
    def _learn_remote_key(self, key: int) -> None:
        self.remote_key = key
        self.remote_token = derive_token(key)

    def _announce_local_addresses(self, initial_flow: Subflow) -> None:
        if self.is_fallback:
            return
        local = initial_flow.socket.local_address
        next_id = 1
        for address in self._stack.local_addresses():
            if address == local:
                continue
            self._announced_local_ids[next_id] = address
            self._pending_options.append(AddAddrOption(address_id=next_id, address=address))
            next_id += 1
        if self._pending_options and initial_flow.is_established:
            initial_flow.socket.send_ack()

    def _process_add_addr(self, option: AddAddrOption) -> None:
        known = self._remote_addresses.get(option.address_id)
        if known is not None and known[0] == option.address:
            return
        self._remote_addresses[option.address_id] = (option.address, option.port or self.remote_port)
        self._stack.notify_add_addr(self, option.address_id, option.address, option.port or self.remote_port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "client" if self.is_client else "server"
        fallback = " fallback" if self.is_fallback else ""
        return (
            f"<MptcpConnection {role} token={self.local_token:#x} "
            f"subflows={len(self._subflows)}/{len(self._subflow_history)} "
            f"estab={self.established} closed={self.closed}{fallback}>"
        )
