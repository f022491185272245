"""Trace post-processing.

Two of the paper's figures are computed directly from packet traces:

* Figure 2a plots the connection-level (data) sequence numbers of the
  segments sent over time, coloured by the subflow that carried them;
* Figure 3 plots, per connection, the delay between the SYN carrying
  MP_CAPABLE and the SYN carrying MP_JOIN.

This module extracts both from :class:`repro.net.tracer.PacketTracer`
captures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.mptcp.options import DssOption, MpCapableOption, MpJoinOption
from repro.mptcp.token import derive_token
from repro.net.addressing import FourTuple
from repro.net.tracer import PacketRecord, PacketTracer


@dataclass(frozen=True)
class SequencePoint:
    """One data segment observed on the wire."""

    time: float
    data_seq: int
    data_len: int
    subflow: FourTuple
    retransmission: bool = False


@dataclass
class SubflowSequenceTrace:
    """The Figure 2a data set: sequence progress per subflow over time."""

    points: list[SequencePoint] = field(default_factory=list)

    def subflow_labels(self) -> list[FourTuple]:
        """The distinct subflows in order of first appearance."""
        seen: list[FourTuple] = []
        for point in self.points:
            if point.subflow not in seen:
                seen.append(point.subflow)
        return seen

    def highest_seq_before(self, time: float, subflow: Optional[FourTuple] = None) -> int:
        """The highest data sequence sent before ``time`` (optionally per subflow)."""
        best = 0
        for point in self.points:
            if point.time > time:
                continue
            if subflow is not None and point.subflow != subflow:
                continue
            best = max(best, point.data_seq + point.data_len)
        return best


def extract_sequence_trace(
    tracer: PacketTracer,
    source_address=None,
) -> SubflowSequenceTrace:
    """Build the sequence/time trace from a packet capture.

    ``source_address`` restricts the trace to segments emitted by one host
    (the data sender), which is what the paper's plot shows.
    """
    trace = SubflowSequenceTrace()
    seen_mappings: set[tuple[FourTuple, int, int]] = set()
    for record in tracer.records:
        segment = record.segment
        if segment.payload_len == 0:
            continue
        if source_address is not None and segment.src != source_address:
            continue
        dss = segment.find_option(DssOption)
        if dss is None or not dss.has_mapping:
            continue
        key = (segment.four_tuple, dss.data_seq, dss.data_len)
        retransmission = key in seen_mappings
        seen_mappings.add(key)
        trace.points.append(
            SequencePoint(
                time=record.time,
                data_seq=dss.data_seq,
                data_len=dss.data_len,
                subflow=segment.four_tuple,
                retransmission=retransmission,
            )
        )
    return trace


def syn_join_delays(records: Iterable[PacketRecord]) -> list[float]:
    """Per-connection delay between the MP_CAPABLE SYN and the first MP_JOIN SYN.

    This is the quantity Figure 3 plots.  Each MP_JOIN SYN names its
    connection by ``token``, the token of the key the MP_CAPABLE SYN/ACK
    returned on the reverse four-tuple of the connection's first SYN, so
    overlapping connections pair up correctly and a JOIN seen on several
    links counts once.  Connections whose MP_JOIN never appears in the
    capture are skipped.  ``records`` is a capture in order
    (``tracer.records``); only its SYN and SYN/ACK records are read.
    """
    syn_times: dict[int, float] = {}  # client key -> first MP_CAPABLE SYN
    # Latest client key per four-tuple, keyed by the plain ints that
    # identify a FourTuple (no FourTuple is built per SYN).
    key_by_tuple: dict[tuple[int, int, int, int], int] = {}
    start_by_token: dict[int, float] = {}
    delays: dict[int, float] = {}  # token -> delay, in JOIN order
    for record in records:
        segment = record.segment
        if not segment.is_syn:
            continue
        capable = segment.find_option(MpCapableOption)
        if capable is None:
            join = segment.find_option(MpJoinOption)
            if join is None or segment.is_ack or join.token in delays:
                continue
            start = start_by_token.get(join.token)
            if start is not None:
                delays[join.token] = record.time - start
        elif segment.is_ack:
            reverse = (segment.dst._value, segment.dport, segment.src._value, segment.sport)
            client_key = key_by_tuple.get(reverse)
            if client_key is not None:
                start_by_token.setdefault(derive_token(capable.sender_key), syn_times[client_key])
        else:
            syn_times.setdefault(capable.sender_key, record.time)
            forward = (segment.src._value, segment.sport, segment.dst._value, segment.dport)
            key_by_tuple[forward] = capable.sender_key
    return list(delays.values())
