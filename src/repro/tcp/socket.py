"""The per-subflow TCP state machine.

A :class:`TcpSocket` is one TCP connection: the initial MPTCP subflow, an
additional MP_JOIN subflow, or (in unit tests) a plain TCP connection.  It
implements the three-way handshake, cumulative acknowledgements, duplicate
ACK counting with fast retransmit, RTO management with exponential backoff
(and abort after the configured number of doublings), graceful close and
reset handling.

The socket is deliberately unaware of MPTCP.  Everything multipath-specific
(which options to put on a SYN, what a DSS mapping means, reinjection) is
delegated to a :class:`SubflowObserver` — implemented by
:class:`repro.mptcp.connection.MptcpConnection`.  This mirrors the paper's
layering: the subflow-level machinery is ordinary TCP; MPTCP composes
subflows.
"""

from __future__ import annotations

import enum
import errno
from typing import Any, Callable, Optional

from repro.net.addressing import FourTuple, IPAddress
from repro.net.packet import Segment, TCPFlags
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.tcp.buffers import ReceiveReassembly, RetransmissionQueue, SentSegment
from repro.tcp.config import INITIAL_SSTHRESH_BYTES, TcpConfig
from repro.tcp.congestion import CongestionControl, LiaCongestionControl
from repro.tcp.info import TcpInfo
from repro.tcp.options import SackOption
from repro.tcp.rtt import RttEstimator

# Hot-path constants: plain-int flag masks (segment flag tests without
# IntFlag machinery), precombined emission flags, and the states in which
# fresh data may be sent.
_FIN_BIT = 0x01
_SYN_BIT = 0x02
_RST_BIT = 0x04
_ACK_BIT = 0x10
_CTRL_BITS = _FIN_BIT | _SYN_BIT | _RST_BIT
_ACK_PSH_FLAGS = TCPFlags.ACK | TCPFlags.PSH
_SYN_ACK_FLAGS = TCPFlags.SYN | TCPFlags.ACK
_FIN_ACK_FLAGS = TCPFlags.FIN | TCPFlags.ACK
_RST_ACK_FLAGS = TCPFlags.RST | TCPFlags.ACK

#: Advertised receive window in bytes (large enough to never bind).
RECEIVE_WINDOW = 4 << 20


class TcpState(enum.Enum):
    """TCP connection states (the subset the simulation uses)."""

    CLOSED = "CLOSED"
    SYN_SENT = "SYN_SENT"
    SYN_RECEIVED = "SYN_RECEIVED"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"
    CLOSING = "CLOSING"
    TIME_WAIT = "TIME_WAIT"


_SEND_READY_STATES = (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT)


class SubflowObserver:
    """Callbacks through which an upper layer drives and observes a socket.

    The default implementations make the socket behave like plain TCP with
    no options; :class:`repro.mptcp.connection.MptcpConnection` overrides
    everything.
    """

    # Empty, so that a slotted subclass (MptcpConnection) has no __dict__.
    __slots__ = ()

    def handshake_options(self, sock: "TcpSocket", kind: str) -> tuple:
        """Options for handshake segments; ``kind`` is ``"syn"``, ``"synack"`` or ``"ack"``."""
        return ()

    def data_options(self, sock: "TcpSocket", metadata: Any) -> tuple:
        """Options attached to a data segment carrying ``metadata`` (a DSS mapping)."""
        return ()

    def ack_options(self, sock: "TcpSocket") -> tuple:
        """Options attached to pure acknowledgements."""
        return ()

    def segment_options_received(self, sock: "TcpSocket", segment: Segment) -> None:
        """Inspect the options of every received segment (keys, ADD_ADDR, DSS acks...)."""

    def on_established(self, sock: "TcpSocket") -> None:
        """The three-way handshake completed."""

    def on_left_established(self, sock: "TcpSocket") -> None:
        """The socket left ESTABLISHED for FIN_WAIT_1 (it sent its FIN) or
        CLOSE_WAIT (the peer's FIN arrived); ``sock.state`` is the new state.
        Leaving it for CLOSED is reported by :meth:`on_closed`."""

    def on_data(self, sock: "TcpSocket", segment: Segment, new_bytes: int) -> None:
        """A data segment arrived (``new_bytes`` excludes duplicated ranges)."""

    def on_acked(self, sock: "TcpSocket", metadata_list: list, newly_acked: int) -> None:
        """Previously sent segments were cumulatively acknowledged."""

    def on_send_space(self, sock: "TcpSocket") -> None:
        """The usable window opened; more data may be sent."""

    def on_rto_expired(self, sock: "TcpSocket", rto: float, consecutive: int) -> None:
        """The retransmission timer expired (the paper's ``timeout`` event)."""

    def on_fin_received(self, sock: "TcpSocket") -> None:
        """The peer sent a FIN (no more data will arrive)."""

    def on_closed(self, sock: "TcpSocket", reason: int) -> None:
        """The socket reached CLOSED; ``reason`` is 0 or an ``errno`` value."""


class TcpSocket:
    """One TCP connection endpoint driven entirely by simulator events."""

    # Slotted: past 30 attribute names CPython stops sharing instance-dict
    # keys, and every socket would carry a 1.6 kB dict of its own.
    __slots__ = (
        "sim", "local_address", "local_port", "remote_address", "remote_port",
        "four_tuple", "_transmit", "_observer", "config", "name", "state",
        "_iss", "snd_una", "snd_nxt", "_peer_window", "_pending_close", "_fin_seq",
        "_irs", "_reassembly", "_fin_received",
        "rtt", "congestion", "_lia", "send_space", "_rtx_queue", "_rto_timer",
        "_syn_timer", "_syn_sent_at", "_syn_retries", "_dupacks", "_lost_pending",
        "_trace_timer",
        "total_retransmissions", "lost_events", "bytes_acked", "bytes_received",
        "segments_sent", "segments_received", "last_ack_time", "established_at",
        "closed_at", "close_reason", "backup",
    )

    def __init__(
        self,
        sim: Simulator,
        local_addr: IPAddress,
        local_port: int,
        remote_addr: IPAddress,
        remote_port: int,
        transmit: Callable[[Segment], None],
        observer: Optional[SubflowObserver] = None,
        config: Optional[TcpConfig] = None,
        congestion: Optional[CongestionControl] = None,
        name: str = "tcp",
    ) -> None:
        #: The simulation engine.
        self.sim = sim
        #: Local IP address.
        self.local_address = local_addr if type(local_addr) is IPAddress else IPAddress(local_addr)
        #: Local TCP port.
        self.local_port = int(local_port)
        #: Remote IP address.
        self.remote_address = remote_addr if type(remote_addr) is IPAddress else IPAddress(remote_addr)
        #: Remote TCP port.
        self.remote_port = int(remote_port)
        #: (local address, local port, remote address, remote port).
        self.four_tuple = FourTuple(self.local_address, self.local_port, self.remote_address, self.remote_port)
        self._transmit = transmit
        self._observer = observer if observer is not None else SubflowObserver()
        #: The TCP configuration in effect (validated when it was built).
        self.config = config if config is not None else TcpConfig()
        #: Socket label used in traces.
        self.name = name

        self.state = TcpState.CLOSED

        # Send-side sequence state.  The initial sequence number is zero for
        # determinism; the SYN consumes one sequence number so data starts
        # at 1, matching the relative sequence numbers of the paper's plots.
        self._iss = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self._peer_window = RECEIVE_WINDOW
        self._pending_close = False
        self._fin_seq: Optional[int] = None

        # Receive-side state.
        self._irs: Optional[int] = None
        self._reassembly: Optional[ReceiveReassembly] = None
        self._fin_received = False

        # Machinery.
        self.rtt = RttEstimator(
            rto_initial=self.config.rto_initial,
            rto_min=self.config.rto_min,
            rto_max=self.config.rto_max,
        )
        if congestion is None:
            from repro.tcp.congestion import RenoCongestionControl

            congestion = RenoCongestionControl(
                self.config.mss,
                self.config.initial_cwnd_segments,
                INITIAL_SSTHRESH_BYTES,
            )
        self.congestion = congestion
        # The coupled controller, if that is what this is: the RTT estimate
        # is handed to it on every ACK.
        self._lia = congestion if isinstance(congestion, LiaCongestionControl) else None
        #: Bytes of new data the windows allow right now: what
        #: :meth:`available_window` answers, kept current by this class
        #: whenever ``cwnd``, the peer's window, ``snd_una`` or ``snd_nxt``
        #: changes, so that schedulers read it instead of calling.
        self.send_space = self.available_window()
        self._rtx_queue = RetransmissionQueue()
        self._rto_timer = Timer(sim, self._on_rto_expired, name=f"{name}-rto")
        self._syn_timer = Timer(sim, self._on_syn_timeout, name=f"{name}-syn")
        self._syn_sent_at: Optional[float] = None
        self._syn_retries = 0
        self._dupacks = 0
        # True while some queued segment may carry a SACK-inferred ``lost``
        # mark that ``_retransmit_lost`` has not yet served.
        self._lost_pending = False
        log = sim.event_log
        self._trace_timer = log.channel("timer") if log is not None else None

        # Statistics exposed via TcpInfo / used by the experiments.
        self.total_retransmissions = 0
        self.lost_events = 0
        self.bytes_acked = 0
        self.bytes_received = 0
        self.segments_sent = 0
        self.segments_received = 0
        self.last_ack_time = 0.0
        self.established_at: Optional[float] = None
        self.closed_at: Optional[float] = None
        self.close_reason: Optional[int] = None
        self.backup = False

    # ------------------------------------------------------------------
    # identity & simple accessors
    # ------------------------------------------------------------------
    @property
    def is_established(self) -> bool:
        """True while data can be exchanged."""
        return self.state == TcpState.ESTABLISHED

    @property
    def is_closed(self) -> bool:
        """True once the socket reached CLOSED (cleanly or not)."""
        return self.state == TcpState.CLOSED and self.closed_at is not None

    @property
    def in_flight(self) -> int:
        """Unacknowledged bytes (including SYN/FIN sequence space)."""
        in_flight = self.snd_nxt - self.snd_una
        return in_flight if in_flight > 0 else 0

    @property
    def rcv_nxt(self) -> int:
        """Next expected receive sequence number (0 before the handshake)."""
        return self._reassembly.rcv_nxt if self._reassembly is not None else 0

    @property
    def consecutive_timeouts(self) -> int:
        """Consecutive RTO expirations without forward progress."""
        return self.rtt.backoff_exponent

    def available_window(self) -> int:
        """Bytes of new data the congestion/receive windows currently allow."""
        cwnd = self.congestion.cwnd
        peer = self._peer_window
        usable = cwnd if cwnd < peer else peer
        in_flight = self.snd_nxt - self.snd_una
        if in_flight < 0:
            in_flight = 0
        available = usable - in_flight
        return available if available > 0 else 0

    def outstanding_metadata(self) -> list:
        """Metadata (DSS mappings) of every sent-but-unacknowledged segment.

        The MPTCP connection uses this for reinjection: when a subflow times
        out or dies, the data ranges still outstanding on it are rescheduled
        onto the remaining subflows.
        """
        return self._rtx_queue.metadata_items()

    def pacing_rate(self) -> float:
        """Pacing rate in bytes/second, following the Linux formula.

        ``rate = factor * cwnd / srtt`` with factor 2.0 in slow start and
        1.2 in congestion avoidance.  Returns 0.0 until an RTT sample exists.
        """
        srtt = self.rtt.srtt
        if srtt is None or srtt <= 0:
            return 0.0
        factor = 2.0 if self.congestion.in_slow_start else 1.2
        return factor * self.congestion.cwnd / srtt

    def info(self) -> TcpInfo:
        """A ``TCP_INFO``-style snapshot of this socket."""
        return TcpInfo(
            state=self.state.value,
            snd_una=self.snd_una,
            snd_nxt=self.snd_nxt,
            rcv_nxt=self.rcv_nxt,
            snd_cwnd=self.congestion.cwnd,
            ssthresh=self.congestion.ssthresh,
            srtt=self.rtt.srtt or 0.0,
            rttvar=self.rtt.rttvar or 0.0,
            rto=self.rtt.rto,
            pacing_rate=self.pacing_rate(),
            backoff=self.rtt.backoff_exponent,
            total_retransmissions=self.total_retransmissions,
            bytes_acked=self.bytes_acked,
            bytes_received=self.bytes_received,
            lost_events=self.lost_events,
            last_ack_time=self.last_ack_time,
        )

    # ------------------------------------------------------------------
    # connection establishment
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Start an active open (send the SYN)."""
        if self.state != TcpState.CLOSED or self.closed_at is not None:
            raise RuntimeError(f"socket {self.name} cannot connect from state {self.state}")
        self.state = TcpState.SYN_SENT
        self.snd_una = self._iss
        self.snd_nxt = self._iss + 1
        self.send_space = self.available_window()
        self._syn_sent_at = self.sim.now
        self._send_syn()
        self._syn_timer.start(self.config.syn_timeout)

    def _send_syn(self) -> None:
        options = self._observer.handshake_options(self, "syn")
        self._emit(
            flags=TCPFlags.SYN,
            seq=self._iss,
            payload_len=0,
            options=options,
        )

    def _send_syn_ack(self) -> None:
        options = self._observer.handshake_options(self, "synack")
        self._emit(
            flags=_SYN_ACK_FLAGS,
            seq=self._iss,
            payload_len=0,
            options=options,
        )

    def _on_syn_timeout(self) -> None:
        self._syn_retries += 1
        if self._syn_retries > self.config.syn_retries:
            self.abort(errno.ETIMEDOUT, send_rst=False)
            return
        if self.state == TcpState.SYN_SENT:
            self._send_syn()
        elif self.state == TcpState.SYN_RECEIVED:
            self._send_syn_ack()
        else:
            return
        self.total_retransmissions += 1
        self._syn_timer.start(self.config.syn_timeout * (2 ** self._syn_retries))

    # ------------------------------------------------------------------
    # sending data
    # ------------------------------------------------------------------
    def send_data(self, length: int, metadata: Any = None) -> bool:
        """Transmit ``length`` payload bytes as one segment.

        ``length`` must not exceed the MSS: segmentation is the job of the
        scheduler/upper layer, which needs to know the exact DSS mapping of
        every segment.  Returns ``False`` when the socket cannot send (not
        established, or no window).
        """
        if self.state not in _SEND_READY_STATES:
            return False
        if length <= 0 or length > self.config.mss:
            raise ValueError(f"segment length must be in (0, mss]; got {length!r}")
        if length > self.send_space:
            return False
        seq = self.snd_nxt
        now = self.sim.now
        self._rtx_queue.push(SentSegment(seq, length, metadata, now, now))
        self.snd_nxt += length
        self.send_space = self.available_window()
        options = self._observer.data_options(self, metadata)
        self._emit(
            flags=_ACK_PSH_FLAGS,
            seq=seq,
            payload_len=length,
            options=options,
        )
        if not self._rto_timer.armed:
            self._rto_timer.start(self.rtt.rto)
        return True

    def send_ack(self) -> None:
        """Send a pure acknowledgement (also used as an MPTCP data ack carrier)."""
        if self.state is TcpState.CLOSED:
            return
        self._emit(
            flags=TCPFlags.ACK,
            seq=self.snd_nxt,
            payload_len=0,
            options=self._observer.ack_options(self),
        )

    # ------------------------------------------------------------------
    # closing
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Gracefully close: send a FIN once all queued data is acknowledged."""
        if self.state in (TcpState.CLOSED, TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2,
                          TcpState.LAST_ACK, TcpState.CLOSING, TcpState.TIME_WAIT):
            return
        self._pending_close = True
        self._maybe_send_fin()

    def _maybe_send_fin(self) -> None:
        if not self._pending_close or self._fin_seq is not None:
            return
        if self._rtx_queue.segments:
            return
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT, TcpState.SYN_RECEIVED):
            return
        self._fin_seq = self.snd_nxt
        self.snd_nxt += 1
        self.send_space = self.available_window()
        self._emit(
            flags=_FIN_ACK_FLAGS,
            seq=self._fin_seq,
            payload_len=0,
            options=self._observer.ack_options(self),
        )
        if self.state == TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        elif self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
            self._observer.on_left_established(self)
        else:
            self.state = TcpState.FIN_WAIT_1
        if not self._rto_timer.armed:
            self._rto_timer.start(self.rtt.rto)

    def abort(self, reason: int = errno.ECONNRESET, send_rst: bool = True) -> None:
        """Abort the connection immediately (the MPTCP ``remove subflow`` path)."""
        if self.closed_at is not None:
            return
        if send_rst and self.state not in (TcpState.CLOSED,):
            self._emit(
                flags=_RST_ACK_FLAGS,
                seq=self.snd_nxt,
                payload_len=0,
                options=(),
            )
        self._enter_closed(reason)

    def _enter_closed(self, reason: int) -> None:
        if self.closed_at is not None:
            return
        self.state = TcpState.CLOSED
        self.closed_at = self.sim.now
        self.close_reason = reason
        # A closed socket never runs a timer or calls up again (every entry
        # point tests ``closed_at`` or the CLOSED state first).  Releasing
        # the timers (their callbacks are bound methods of this socket) and
        # dropping the observer back-edge after the last upcall leave no
        # reference cycle: the socket is freed once its connection lets go.
        self._rto_timer.release()
        self._syn_timer.release()
        if self._lia is not None:
            self._lia.detach()
        # Notify the upper layer before dropping the retransmission queue:
        # MPTCP reads the outstanding mappings here to reinject the data
        # stranded on this subflow onto the remaining ones.
        self._observer.on_closed(self, reason)
        self._observer = None
        self._rtx_queue.clear()

    # ------------------------------------------------------------------
    # segment reception
    # ------------------------------------------------------------------
    def handle_segment(self, segment: Segment) -> None:
        """Process one segment addressed to this socket."""
        if self.closed_at is not None:
            return
        self.segments_received += 1
        if segment.window != self._peer_window:
            self._peer_window = segment.window
            self.send_space = self.available_window()
        self._observer.segment_options_received(self, segment)

        bits = segment._flag_bits
        if bits & _RST_BIT:
            self._enter_closed(errno.ECONNRESET)
            return

        state = self.state
        if state is TcpState.CLOSED:
            # Only a passive open (SYN on a listening port) is valid here.
            if bits & _SYN_BIT and not bits & _ACK_BIT:
                self._handle_passive_syn(segment)
            return

        if state is TcpState.SYN_SENT:
            self._handle_syn_sent(segment)
            return

        if bits & _SYN_BIT:
            if not bits & _ACK_BIT:
                # Retransmitted SYN from the peer: repeat our SYN+ACK.
                if self.state is TcpState.SYN_RECEIVED:
                    self._send_syn_ack()
                return
            # Duplicate SYN+ACK (our handshake ACK was lost): re-acknowledge.
            self.send_ack()
            return

        if bits & _ACK_BIT:
            self._process_ack(segment)
            if self.closed_at is not None:
                return

        data_advanced = False
        payload_len = segment.payload_len
        if payload_len > 0:
            data_advanced = self._process_data(segment)

        if bits & _FIN_BIT:
            self._process_fin(segment)
        elif payload_len > 0:
            # Acknowledge every data segment immediately (no delayed ACKs).
            self.send_ack()
        if data_advanced and self._pending_close:
            self._maybe_send_fin()

    # -- handshake branches --------------------------------------------
    def _handle_passive_syn(self, segment: Segment) -> None:
        self._irs = segment.seq
        self._reassembly = ReceiveReassembly(segment.seq + 1)
        self.state = TcpState.SYN_RECEIVED
        self.snd_una = self._iss
        self.snd_nxt = self._iss + 1
        self.send_space = self.available_window()
        self._syn_sent_at = self.sim.now
        self._send_syn_ack()
        self._syn_timer.start(self.config.syn_timeout)

    def _handle_syn_sent(self, segment: Segment) -> None:
        if not (segment.is_syn and segment.is_ack):
            return
        if segment.ack != self._iss + 1:
            return
        self._irs = segment.seq
        self._reassembly = ReceiveReassembly(segment.seq + 1)
        self.snd_una = segment.ack
        self.send_space = self.available_window()
        self._syn_timer.stop()
        if self._syn_retries == 0 and self._syn_sent_at is not None:
            self.rtt.add_sample(self.sim.now - self._syn_sent_at)
            self._propagate_rtt()
        self.state = TcpState.ESTABLISHED
        self.established_at = self.sim.now
        options = self._observer.handshake_options(self, "ack")
        self._emit(
            flags=TCPFlags.ACK,
            seq=self.snd_nxt,
            payload_len=0,
            options=options,
        )
        self._observer.on_established(self)
        self._observer.on_send_space(self)

    # -- ACK processing -------------------------------------------------
    def _process_ack(self, segment: Segment) -> None:
        ack = segment.ack

        if self.state is TcpState.SYN_RECEIVED:
            if ack >= self._iss + 1:
                if ack > self.snd_una:
                    self.snd_una = ack
                    self.send_space = self.available_window()
                self._syn_timer.stop()
                if self._syn_retries == 0 and self._syn_sent_at is not None:
                    self.rtt.add_sample(self.sim.now - self._syn_sent_at)
                    self._propagate_rtt()
                self.state = TcpState.ESTABLISHED
                self.established_at = self.sim.now
                self._observer.on_established(self)
                self._observer.on_send_space(self)
            return

        if ack > self.snd_nxt:
            return

        sack = segment.options_by_type.get(SackOption)
        if sack is not None:
            self._process_sack(sack)

        if ack > self.snd_una:
            self.snd_una = ack
            self.last_ack_time = self.sim.now
            self._dupacks = 0
            acked_segments = self._rtx_queue.ack_upto(ack)

            # Karn's algorithm: only sample RTT from segments sent exactly
            # once.  Additionally skip sampling on recovery ACKs (an ACK
            # that also covers retransmitted or SACKed segments): those
            # segments sat behind a hole and their delay measures the
            # recovery time, not the path RTT.  SACK arrival already
            # produced accurate samples during the recovery.
            payload_acked = 0
            recovery_ack = False
            sample_segment = None
            for sent in acked_segments:
                payload_acked += sent.length
                if sent.retransmitted:
                    recovery_ack = True
                else:
                    if sent.sacked:
                        recovery_ack = True
                    sample_segment = sent
            self.bytes_acked += payload_acked
            if recovery_ack:
                sample_segment = None
            rtt = self.rtt
            if sample_segment is not None:
                rtt.add_sample(self.sim.now - sample_segment.first_sent_at)
            elif rtt.backoff_exponent:
                rtt.reset_backoff()
            # ``_propagate_rtt``, inline: this runs for every ACK.
            if self._lia is not None:
                self._lia.observe_rtt(rtt.srtt)

            congestion = self.congestion
            if congestion.fast_recovery:
                congestion.on_recovery_ack(ack)
            # ``ack <= snd_nxt`` held above, so this is ``in_flight``.
            congestion.on_ack(payload_acked, self.snd_nxt - ack)
            self.send_space = self.available_window()

            # FIN handling: our FIN is acknowledged when snd_una passes it.
            if self._fin_seq is not None and self.snd_una > self._fin_seq:
                self._on_fin_acked()
                if self.closed_at is not None:
                    return

            if self._rtx_queue.segments or self.snd_nxt > self.snd_una:
                self._rto_timer.start(rtt.rto)
            else:
                self._rto_timer.stop()

            if acked_segments:
                metadata = [s.metadata for s in acked_segments if s.metadata is not None]
                self._observer.on_acked(self, metadata, payload_acked)
            if self._pending_close:
                self._maybe_send_fin()
            if self.send_space > 0 and self.state in _SEND_READY_STATES:
                self._observer.on_send_space(self)
        elif (
            ack == self.snd_una
            and self._rtx_queue.segments
            # ``segment.is_pure_ack`` (the ACK bit is known to be set).
            and segment.payload_len == 0
            and not segment._flag_bits & _CTRL_BITS
        ):
            self._dupacks += 1
            if self._dupacks == self.config.dupack_threshold:
                self._fast_retransmit()
        if sack is not None:
            self._retransmit_lost()

    def _process_sack(self, sack: SackOption) -> None:
        """Mark SACKed segments and detect losses (simplified RFC 6675).

        A segment is considered lost once a SACK block covers sequence
        space above it: with per-path FIFO links there is no reordering
        within a subflow, so anything skipped was dropped.
        """
        highest = sack.highest
        blocks = sack.blocks
        newly_lost = False
        newest_sample: Optional[float] = None
        for sent in self._rtx_queue.segments:
            seq = sent.seq
            if seq >= highest:
                # The queue is in sequence order: nothing from here on can
                # sit inside a block or below one.
                break
            if sent.sacked:
                continue
            end = seq + sent.length
            # SackOption.covers, inlined over the (at most four) blocks.
            for block_start, block_end in blocks:
                if block_start <= seq and end <= block_end:
                    sent.sacked = True
                    sent.lost = False
                    if not sent.retransmitted:
                        # Sample the RTT from selectively acknowledged
                        # segments (as Linux does); waiting for the
                        # cumulative ACK would wildly overestimate the RTT
                        # whenever a hole is being repaired in front of
                        # this segment.
                        newest_sample = self.sim.now - sent.first_sent_at
                    break
            else:
                if not sent.lost and not sent.retransmitted and end <= highest:
                    # Never re-mark a segment that was already
                    # retransmitted: if the retransmission is lost too, the
                    # RTO recovers it.
                    sent.lost = True
                    newly_lost = True
        if newest_sample is not None:
            self.rtt.add_sample(newest_sample)
            self._propagate_rtt()
        if newly_lost:
            self._lost_pending = True
            if not self.congestion.fast_recovery:
                self.lost_events += 1
                self.congestion.on_fast_retransmit(self.in_flight, self.snd_nxt)
                self.send_space = self.available_window()

    def _retransmit_lost(self, budget: int = 3) -> None:
        """Retransmit up to ``budget`` segments marked lost by SACK."""
        if not self._lost_pending:
            return
        sent_any = False
        for sent in self._rtx_queue.segments:
            if budget <= 0:
                break
            if sent.lost and not sent.sacked:
                self._retransmit(sent)
                sent.lost = False
                budget -= 1
                sent_any = True
        else:
            # Walked the whole queue within budget: no mark is left.
            self._lost_pending = False
        if sent_any and not self._rto_timer.armed:
            self._rto_timer.start(self.rtt.rto)

    def _fast_retransmit(self) -> None:
        head = self._rtx_queue.head()
        if head is None:
            return
        self.lost_events += 1
        self.congestion.on_fast_retransmit(self.in_flight, self.snd_nxt)
        self.send_space = self.available_window()
        self._retransmit(head)
        self._rto_timer.start(self.rtt.rto)

    def _retransmit(self, sent: SentSegment) -> None:
        sent.retransmitted = True
        sent.transmissions += 1
        sent.last_sent_at = self.sim.now
        self.total_retransmissions += 1
        if self._trace_timer is not None:
            self._trace_timer.emit(
                self.sim.now, "timer", "retransmit", self.name,
                {"seq": sent.seq, "length": sent.length},
            )
        options = self._observer.data_options(self, sent.metadata)
        self._emit(
            flags=_ACK_PSH_FLAGS,
            seq=sent.seq,
            payload_len=sent.length,
            options=options,
        )

    # -- data & FIN ------------------------------------------------------
    def _process_data(self, segment: Segment) -> bool:
        if self._reassembly is None:
            return False
        before = self._reassembly.rcv_nxt
        new_bytes = self._reassembly.register(segment.seq, segment.payload_len)
        self.bytes_received += new_bytes
        self._observer.on_data(self, segment, new_bytes)
        return self._reassembly.rcv_nxt > before

    def _process_fin(self, segment: Segment) -> None:
        if self._reassembly is None:
            return
        fin_seq = segment.seq + segment.payload_len
        if fin_seq > self._reassembly.rcv_nxt:
            # Data is still missing before the FIN; acknowledge what we have.
            self.send_ack()
            return
        if not self._fin_received:
            self._fin_received = True
            self._reassembly.consume_fin(fin_seq)
            self._observer.on_fin_received(self)
            if self.state == TcpState.ESTABLISHED:
                self.state = TcpState.CLOSE_WAIT
                self._observer.on_left_established(self)
            elif self.state == TcpState.FIN_WAIT_1:
                self.state = TcpState.CLOSING
            elif self.state == TcpState.FIN_WAIT_2:
                self._enter_time_wait()
        self.send_ack()
        self._maybe_send_fin()

    def _on_fin_acked(self) -> None:
        if self.state == TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state == TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state == TcpState.LAST_ACK:
            self._enter_closed(0)

    def _enter_time_wait(self) -> None:
        # A shortened TIME_WAIT: long enough to acknowledge a retransmitted
        # FIN, short enough not to slow experiments down.
        self.state = TcpState.TIME_WAIT
        self.sim.schedule(2 * self.config.rto_min, self._time_wait_done)

    def _time_wait_done(self) -> None:
        if self.state == TcpState.TIME_WAIT:
            self._enter_closed(0)

    # -- RTO --------------------------------------------------------------
    def _on_rto_expired(self) -> None:
        head = self._rtx_queue.head()
        if head is None and self._fin_seq is None:
            return
        self.lost_events += 1
        self.congestion.on_retransmission_timeout()
        self.send_space = self.available_window()
        self.rtt.on_timeout()
        consecutive = self.rtt.backoff_exponent
        new_rto = self.rtt.rto
        if self._trace_timer is not None:
            self._trace_timer.emit(
                self.sim.now, "timer", "rto_expired", self.name,
                {"rto": new_rto, "consecutive": consecutive},
            )
        if consecutive > self.config.max_rto_doublings:
            # The Linux kernel gives up after ~15 doublings and the subflow
            # is terminated; §4.2 measures this taking about 12 minutes.
            self.abort(errno.ETIMEDOUT, send_rst=False)
            return
        if head is not None:
            self._retransmit(head)
        else:
            # Only the FIN is outstanding: retransmit it.
            self.total_retransmissions += 1
            if self._trace_timer is not None:
                self._trace_timer.emit(
                    self.sim.now, "timer", "retransmit", self.name,
                    {"seq": self._fin_seq, "length": 0},
                )
            self._emit(
                flags=_FIN_ACK_FLAGS,
                seq=self._fin_seq,
                payload_len=0,
                options=self._observer.ack_options(self),
            )
        self._rto_timer.start(new_rto)
        self._observer.on_rto_expired(self, new_rto, consecutive)

    # ------------------------------------------------------------------
    # low-level emission
    # ------------------------------------------------------------------
    def _propagate_rtt(self) -> None:
        if self._lia is not None:
            self._lia.observe_rtt(self.rtt.srtt)

    def _emit(self, flags: TCPFlags, seq: int, payload_len: int, options: tuple) -> None:
        """Build one segment (its ack field is ``rcv_nxt``, 0 until the
        peer's SYN arrived) and hand it to ``transmit``."""
        flags = int(flags)
        reassembly = self._reassembly
        if reassembly is None:
            ack = 0
        else:
            ack = reassembly.rcv_nxt
            if flags & _ACK_BIT and reassembly.buffered:
                blocks = tuple(reassembly.sack_blocks(4))
                options = tuple(options) + (SackOption(blocks=blocks),)
        # Positional construction (src, dst, sport, dport, seq, ack, flags,
        # payload_len, options, window, ttl, sent_at) — this is the single
        # hottest allocation in the simulator.
        segment = Segment(
            self.local_address,
            self.remote_address,
            self.local_port,
            self.remote_port,
            seq,
            ack,
            flags,
            payload_len,
            options,
            RECEIVE_WINDOW,
            64,
            self.sim.now,
        )
        self.segments_sent += 1
        self._transmit(segment)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpSocket {self.name} {self.four_tuple} {self.state.value}"
            f" una={self.snd_una} nxt={self.snd_nxt}>"
        )
