"""The fault model library and the segment mutation engine.

Each :class:`FaultModel` names one adversarial behaviour observed in
deployed networks (§3 of the paper: middleboxes that strip or rewrite TCP
options, randomize sequence numbers, split and coalesce segments; plus
NATs that rebind and links that flap).  A model contributes two things: a
parameter generator used when a :class:`~repro.faults.plan.FaultPlan` is
derived from a seed, and apply semantics implemented by
:class:`MutationEngine` — the shared per-choke-point state machine that
both the link-level fault filter and the :class:`FaultingMiddlebox` drive.

Randomness only ever happens at plan generation.  Applying a plan is pure
replay: the engine's behaviour is a function of the plan and the traffic,
which is what keeps fuzz campaigns byte-identical across worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from repro.faults.plan import FaultEvent
from repro.mptcp.options import (
    AddAddrOption,
    DssOption,
    MpCapableOption,
    MpJoinOption,
    MpPrioOption,
    RemoveAddrOption,
)
from repro.net.packet import Segment, TCPFlags
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomSource

#: Option classes a ``strip_option`` event may name.
STRIPPABLE_OPTIONS: dict[str, type] = {
    "AddAddrOption": AddAddrOption,
    "RemoveAddrOption": RemoveAddrOption,
    "MpJoinOption": MpJoinOption,
    "MpPrioOption": MpPrioOption,
    "MpCapableOption": MpCapableOption,
    "DssOption": DssOption,
}

#: Option names the random generator picks from.  DSS stripping is excluded
#: because it is covered by the dedicated ``corrupt_dss`` model.  MP_CAPABLE
#: is generated since the stack grew its plain-TCP fallback path: a stripped
#: handshake now downgrades the connection instead of killing it, which
#: turned the once trivially-dead corner of the fuzz space into a measurable
#: degradation axis.
_GENERATED_STRIP_CHOICES = (
    "AddAddrOption",
    "MpCapableOption",
    "MpJoinOption",
    "MpPrioOption",
    "RemoveAddrOption",
)


@dataclass(frozen=True)
class FaultModel:
    """One named adversarial behaviour.

    ``kind`` decides how the injector dispatches an event: ``window``
    mutations are active between ``time`` and ``time + duration``,
    ``instant`` mutations change engine state once, and ``link`` mutations
    act on the Link object itself rather than on segments.
    """

    name: str
    kind: str  # "window" | "instant" | "link"
    description: str
    generate_params: Callable[[RandomSource, float], dict]


def _window(rng: RandomSource, horizon: float, low: float = 0.1, high: float = 0.4) -> float:
    return round(rng.uniform(low * horizon, high * horizon), 4)


FAULT_MODELS: dict[str, FaultModel] = {
    model.name: model
    for model in (
        FaultModel(
            "strip_option",
            "window",
            "remove one MPTCP option class from every forwarded segment",
            lambda rng, horizon: {
                "option": rng.choice(_GENERATED_STRIP_CHOICES),
                "duration": _window(rng, horizon),
            },
        ),
        FaultModel(
            "corrupt_dss",
            "window",
            "invalidate DSS checksums: the data-sequence mapping is discarded in transit",
            lambda rng, horizon: {"duration": _window(rng, horizon, 0.05, 0.25)},
        ),
        FaultModel(
            "rewrite_seq",
            "instant",
            "rewrite the ISN of flows set up from now on (firewall sequence randomization)",
            lambda rng, horizon: {"offset": rng.randint(1_000, 1_000_000)},
        ),
        FaultModel(
            "split_segment",
            "window",
            "split large data segments in two, dividing the DSS mapping",
            lambda rng, horizon: {
                "duration": _window(rng, horizon),
                "min_payload": rng.choice((256, 512, 1024)),
            },
        ),
        FaultModel(
            "coalesce_segments",
            "window",
            "hold a data segment briefly and merge it with a contiguous successor",
            lambda rng, horizon: {
                "duration": _window(rng, horizon, 0.1, 0.3),
                "hold": round(rng.uniform(0.005, 0.03), 4),
            },
        ),
        FaultModel(
            "nat_rebind",
            "instant",
            "drop all NAT flow state: established flows blackhole until a new SYN",
            lambda rng, horizon: {},
        ),
        FaultModel(
            "link_flap",
            "link",
            "blackhole the link (loss 100%) for a window, then restore",
            lambda rng, horizon: {"duration": _window(rng, horizon, 0.05, 0.3)},
        ),
        FaultModel(
            "reorder",
            "window",
            "hold every Nth data segment for an extra delay (reordering)",
            lambda rng, horizon: {
                "duration": _window(rng, horizon),
                "every": rng.randint(2, 5),
                "delay": round(rng.uniform(0.01, 0.08), 4),
            },
        ),
        FaultModel(
            "burst_loss",
            "instant",
            "drop the next N segments outright (a loss burst)",
            lambda rng, horizon: {"count": rng.randint(3, 12)},
        ),
    )
}

#: Named generation profiles: which models a seeded plan may draw from.
#: ``segment`` is for choke points that cannot touch the Link object
#: (the FaultingMiddlebox path).
PROFILES: dict[str, tuple[str, ...]] = {
    "default": tuple(sorted(FAULT_MODELS)),
    "segment": tuple(sorted(name for name, model in FAULT_MODELS.items() if model.kind != "link")),
}


def profile_models(profile: str) -> tuple[str, ...]:
    """The fault model names a generation profile draws from."""
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown fault profile {profile!r} (have {sorted(PROFILES)})") from None


def _directed_flow(segment: Segment) -> tuple:
    return (segment.src.value, segment.sport, segment.dst.value, segment.dport)


def _canonical_flow(segment: Segment) -> tuple:
    key = (segment.src.value, segment.sport, segment.dst.value, segment.dport)
    reverse = (segment.dst.value, segment.dport, segment.src.value, segment.sport)
    return key if key <= reverse else reverse


class MutationEngine:
    """Applies a plan's segment mutations at one choke point.

    The engine is fed every segment crossing the choke point (one link or
    one middlebox) via :meth:`process` and returns the segments that
    survive — mutated, split, both, or none.  Held segments (reordering,
    coalescing) are re-emitted through the ``reinject`` callback, which the
    owner wires to a path that bypasses the engine so held traffic is not
    mutated twice.

    The mutation pipeline order is fixed (rebind admission, burst loss,
    option stripping, DSS corruption, sequence rewrite, split, reorder,
    coalesce) — part of the determinism contract.
    """

    def __init__(
        self,
        sim: Simulator,
        label: str,
        reinject: Callable[[Segment, Any], None],
    ) -> None:
        self._sim = sim
        #: The choke point this engine guards (link or middlebox name).
        self.label = label
        self._reinject = reinject
        self._active: list[FaultEvent] = []
        self._rewrite_offset = 0
        # Per-flow sequence offsets, assigned at SYN time (like a real
        # sequence-randomizing firewall): canonical flow -> (SYN direction,
        # offset).  Flows set up before the rewrite activates keep offset 0.
        self._flow_offsets: dict[tuple, tuple[tuple, int]] = {}
        self._rebound = False
        self._allowed_flows: set[tuple] = set()
        self._burst_drops_left = 0
        self._reorder_counts: dict[int, int] = {}
        # One coalesce hold slot: (segment, ctx, release timer event).
        self._held: Optional[tuple[Segment, Any, object]] = None
        self.counters: dict[str, int] = {
            "segments_dropped": 0,
            "options_stripped": 0,
            "dss_corrupted": 0,
            "seq_rewritten": 0,
            "segments_split": 0,
            "segments_coalesced": 0,
            "segments_reordered": 0,
            "flows_rebound": 0,
        }

    # ------------------------------------------------------------------
    # plan event dispatch (called by the injector)
    # ------------------------------------------------------------------
    def activate(self, event: FaultEvent) -> None:
        """Apply one plan event: open a window or mutate engine state."""
        params = event.param_dict
        if event.mutation == "nat_rebind":
            self.counters["flows_rebound"] += len(self._allowed_flows)
            self._allowed_flows.clear()
            self._rebound = True
        elif event.mutation == "burst_loss":
            self._burst_drops_left += int(params.get("count", 5))
        elif event.mutation == "rewrite_seq":
            self._rewrite_offset += int(params.get("offset", 100_000))
        else:
            self._active.append(event)

    def deactivate(self, event: FaultEvent) -> None:
        """Close a windowed mutation's active window."""
        try:
            self._active.remove(event)
        except ValueError:
            return
        self._reorder_counts.pop(id(event), None)
        if event.mutation == "coalesce_segments" and self._held is not None:
            self._flush_held()

    def _active_of(self, mutation: str) -> Optional[FaultEvent]:
        for event in self._active:
            if event.mutation == mutation:
                return event
        return None

    # ------------------------------------------------------------------
    # the segment pipeline
    # ------------------------------------------------------------------
    def process(self, segment: Segment, ctx: Any = None) -> list[Segment]:
        """Run one segment through the active mutations.

        ``ctx`` is opaque transport context the owner needs to re-emit held
        segments (the ingress interface); it is handed back to ``reinject``
        unchanged.
        """
        # 1. NAT-rebind admission control (and sequence-rewrite flow setup:
        # a firewall assigns its ISN offset when it sees the flow's SYN).
        if segment.is_syn and not segment.is_ack:
            flow = _canonical_flow(segment)
            self._allowed_flows.add(flow)
            if self._rewrite_offset and flow not in self._flow_offsets:
                self._flow_offsets[flow] = (_directed_flow(segment), self._rewrite_offset)
        elif self._rebound and _canonical_flow(segment) not in self._allowed_flows:
            self.counters["segments_dropped"] += 1
            return []

        # 2. Burst loss.
        if self._burst_drops_left > 0:
            self._burst_drops_left -= 1
            self.counters["segments_dropped"] += 1
            return []

        # 3. Option stripping (every active strip window applies).
        for event in self._active:
            if event.mutation != "strip_option":
                continue
            option_name = str(event.param_dict.get("option", "AddAddrOption"))
            option_type = STRIPPABLE_OPTIONS.get(option_name)
            if option_type is None or not segment.options:
                continue
            kept = tuple(opt for opt in segment.options if not isinstance(opt, option_type))
            if len(kept) != len(segment.options):
                self.counters["options_stripped"] += len(segment.options) - len(kept)
                segment = segment.with_options(kept)

        # 4. DSS corruption: the receiver would fail the checksum and drop
        # the mapping, so the in-transit model removes the option.
        if self._active_of("corrupt_dss") is not None and segment.options:
            kept = tuple(opt for opt in segment.options if not isinstance(opt, DssOption))
            if len(kept) != len(segment.options):
                self.counters["dss_corrupted"] += len(segment.options) - len(kept)
                segment = segment.with_options(kept)

        # 5. Sequence-space rewrite: flows whose SYN crossed after
        # activation carry a permanent per-flow offset — seq shifted in the
        # SYN's direction, acks shifted back in the reverse one, so the
        # rewrite is self-consistent end to end (the transparency a real
        # sequence-randomizing firewall maintains).
        offset_entry = self._flow_offsets.get(_canonical_flow(segment))
        if offset_entry is not None:
            syn_direction, offset = offset_entry
            if _directed_flow(segment) == syn_direction:
                segment = replace(segment, seq=segment.seq + offset)
            else:
                segment = replace(segment, ack=max(0, segment.ack - offset))
            self.counters["seq_rewritten"] += 1

        # 6. Segment splitting.
        split = self._active_of("split_segment")
        if split is not None:
            halves = self._try_split(segment, split)
            if halves is not None:
                self.counters["segments_split"] += 1
                return halves

        # 7. Reordering: hold every Nth data segment for an extra delay.
        reorder = self._active_of("reorder")
        if reorder is not None and segment.payload_len > 0:
            count = self._reorder_counts.get(id(reorder), 0) + 1
            self._reorder_counts[id(reorder)] = count
            if count % max(2, int(reorder.param_dict.get("every", 3))) == 0:
                delay = float(reorder.param_dict.get("delay", 0.02))
                self.counters["segments_reordered"] += 1
                self._sim.schedule(delay, self._reinject, segment, ctx)
                return []

        # 8. Coalescing: hold one data segment and merge a contiguous
        # successor into it.
        coalesce = self._active_of("coalesce_segments")
        if coalesce is not None and segment.payload_len > 0 and not (
            segment.flags & (TCPFlags.SYN | TCPFlags.FIN | TCPFlags.RST)
        ):
            return self._coalesce(segment, ctx, coalesce)

        return [segment]

    # ------------------------------------------------------------------
    # split / coalesce helpers
    # ------------------------------------------------------------------
    def _try_split(self, segment: Segment, event: FaultEvent) -> Optional[list[Segment]]:
        min_payload = int(event.param_dict.get("min_payload", 512))
        if segment.payload_len < max(2, min_payload) or segment.is_syn:
            return None
        head_len = segment.payload_len // 2
        tail_len = segment.payload_len - head_len
        dss = segment.find_option(DssOption)
        head_options = segment.options
        tail_options: tuple = ()
        if dss is not None and dss.has_mapping and dss.data_len == segment.payload_len:
            head_dss = DssOption(data_seq=dss.data_seq, data_len=head_len, data_ack=dss.data_ack)
            tail_dss = DssOption(
                data_seq=dss.data_seq + head_len,
                data_len=tail_len,
                data_ack=dss.data_ack,
                data_fin=dss.data_fin,
            )
            head_options = tuple(
                head_dss if isinstance(opt, DssOption) else opt for opt in segment.options
            )
            tail_options = (tail_dss,)
        # A FIN consumes the sequence number after the payload, so it must
        # ride the tail half.
        head_flags = segment.flags & ~TCPFlags.FIN
        head = replace(
            segment, payload_len=head_len, flags=head_flags, options=head_options
        )
        tail = replace(
            segment, seq=segment.seq + head_len, payload_len=tail_len, options=tail_options
        )
        return [head, tail]

    def _coalesce(self, segment: Segment, ctx: Any, event: FaultEvent) -> list[Segment]:
        if self._held is None:
            hold = float(event.param_dict.get("hold", 0.02))
            timer = self._sim.schedule(hold, self._release_held)
            self._held = (segment, ctx, timer)
            return []
        held, held_ctx, timer = self._held
        merged = self._try_merge(held, segment)
        if merged is not None:
            self._sim.cancel(timer)
            self._held = None
            self.counters["segments_coalesced"] += 1
            return [merged]
        # Not mergeable: flush the held segment through its own ingress
        # context (it may have been travelling the opposite direction) and
        # let the current segment continue normally.  The reinject happens
        # synchronously, so same-direction ordering is preserved.
        self._sim.cancel(timer)
        self._held = None
        self._reinject(held, held_ctx)
        return [segment]

    @staticmethod
    def _try_merge(head: Segment, tail: Segment) -> Optional[Segment]:
        if head.four_tuple != tail.four_tuple or tail.seq != head.end_seq:
            return None
        head_dss = head.find_option(DssOption)
        tail_dss = tail.find_option(DssOption)
        if (
            head_dss is None
            or tail_dss is None
            or not head_dss.has_mapping
            or not tail_dss.has_mapping
            or head_dss.mapping_end != tail_dss.data_seq
        ):
            return None
        merged_dss = DssOption(
            data_seq=head_dss.data_seq,
            data_len=head_dss.data_len + tail_dss.data_len,
            data_ack=tail_dss.data_ack if tail_dss.data_ack is not None else head_dss.data_ack,
            data_fin=tail_dss.data_fin,
        )
        options = tuple(
            merged_dss if isinstance(opt, DssOption) else opt for opt in head.options
        )
        return replace(
            head,
            payload_len=head.payload_len + tail.payload_len,
            ack=tail.ack,
            window=tail.window,
            flags=head.flags | tail.flags,
            options=options,
        )

    def _release_held(self) -> None:
        if self._held is None:
            return
        segment, ctx, _timer = self._held
        self._held = None
        self._reinject(segment, ctx)

    def _flush_held(self) -> None:
        if self._held is None:
            return
        segment, ctx, timer = self._held
        self._sim.cancel(timer)
        self._held = None
        self._reinject(segment, ctx)
