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
from typing import Optional

from repro.mptcp.options import DssOption, MpCapableOption, MpJoinOption
from repro.net.addressing import FourTuple
from repro.net.tracer import PacketTracer


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


def payload_byte_totals(tracer: PacketTracer) -> dict[FourTuple, int]:
    """Total TCP payload bytes observed on the wire, per four-tuple.

    This is the wire view of the transfer: comparing it against the
    application-level delivered bytes exposes retransmission overhead,
    which is why the trace probe reports the total alongside the digest.
    """
    totals: dict[FourTuple, int] = {}
    for record in tracer.records:
        segment = record.segment
        if segment.payload_len:
            key = segment.four_tuple
            totals[key] = totals.get(key, 0) + segment.payload_len
    return totals


def syn_join_delays(tracer: PacketTracer) -> list[float]:
    """Per-connection delay between the MP_CAPABLE SYN and the first MP_JOIN SYN.

    This is the quantity Figure 3 plots.  Connections whose MP_JOIN never
    appears in the capture are skipped.
    """
    capable_times: dict[int, float] = {}
    join_delays: list[float] = []
    joined: set[int] = set()
    for record in tracer.records:
        segment = record.segment
        if not segment.is_syn or segment.is_ack:
            continue
        capable = segment.find_option(MpCapableOption)
        if capable is not None:
            capable_times.setdefault(capable.sender_key, record.time)
            continue
        join = segment.find_option(MpJoinOption)
        if join is None:
            continue
        # Correlate by sender: the MP_JOIN of a connection comes from the
        # same source address as its MP_CAPABLE and carries the peer's
        # token.  In these experiments a client runs one connection at a
        # time, so the most recent un-joined MP_CAPABLE from that source is
        # the right one.
        best_key = None
        best_time = None
        for key, time in capable_times.items():
            if key in joined or time > record.time:
                continue
            if best_time is None or time > best_time:
                best_key, best_time = key, time
        if best_key is None:
            continue
        joined.add(best_key)
        join_delays.append(record.time - best_time)
    return join_delays
