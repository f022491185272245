"""Property-based tests (hypothesis) for core data structures and codecs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cdf import Cdf
from repro.analysis.stats import summarize
from repro.core import codec
from repro.core.commands import (
    COMMAND_CLASSES,
    CommandReply,
    CreateSubflowCommand,
    RemoveSubflowCommand,
    ReplyStatus,
)
from repro.core.events import EVENT_CLASSES, SubflowClosedEvent, SubflowEstablishedEvent, TimeoutEvent
from repro.net.addressing import FourTuple, IPAddress
from repro.tcp.buffers import ReceiveReassembly
from repro.tcp.rtt import RttEstimator

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPAddress)
ports = st.integers(min_value=0, max_value=0xFFFF)
tokens = st.integers(min_value=0, max_value=0xFFFFFFFF)
four_tuples = st.builds(FourTuple, addresses, ports, addresses, ports)


class TestReassemblyProperties:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=60)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_rcv_nxt_matches_delivered_prefix(self, chunks):
        """rcv_nxt always equals the length of the contiguous received prefix,
        and total new bytes never exceed the distinct bytes offered."""
        reasm = ReceiveReassembly(0)
        covered = set()
        new_total = 0
        for start, length in chunks:
            new_total += reasm.register(start, length)
            covered.update(range(start, start + length))
        expected_prefix = 0
        while expected_prefix in covered:
            expected_prefix += 1
        assert reasm.rcv_nxt == expected_prefix
        assert new_total <= len(covered)
        # Out-of-order ranges never overlap and sit entirely above rcv_nxt.
        ranges = reasm.out_of_order_ranges
        for index, (start, end) in enumerate(ranges):
            assert start < end
            assert start >= reasm.rcv_nxt
            if index:
                assert start >= ranges[index - 1][1]

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=40)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_duplicate_delivery_never_counted_twice(self, chunks):
        reasm = ReceiveReassembly(0)
        for start, length in chunks:
            reasm.register(start, length)
        before = reasm.rcv_nxt
        for start, length in chunks:
            assert reasm.register(start, length) == 0 or reasm.rcv_nxt > before


class TestRttProperties:
    @given(st.lists(st.floats(min_value=1e-4, max_value=2.0), min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_rto_bounds(self, samples):
        est = RttEstimator(rto_min=0.2, rto_max=120.0)
        for sample in samples:
            est.add_sample(sample)
        assert 0.2 <= est.rto <= 120.0
        assert est.srtt is not None
        assert min(samples) <= est.srtt <= max(samples) + 1e-9

    @given(st.integers(min_value=1, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_backoff_monotone_and_capped(self, timeouts):
        est = RttEstimator(rto_min=0.2, rto_max=60.0)
        est.add_sample(0.05)
        previous = est.rto
        for _ in range(timeouts):
            est.on_timeout()
            assert est.rto >= previous
            previous = est.rto
        assert est.rto <= 60.0


class TestCodecProperties:
    @given(st.floats(min_value=0, max_value=1e6), tokens, st.integers(0, 65535), st.floats(0, 120), st.integers(0, 20))
    @settings(max_examples=100, deadline=None)
    def test_timeout_event_roundtrip(self, time, token, subflow_id, rto, consecutive):
        event = TimeoutEvent(time, token, subflow_id, rto, consecutive)
        assert codec.decode_event(codec.encode_event(event)) == event

    @given(st.floats(min_value=0, max_value=1e6), tokens, st.integers(0, 65535), four_tuples, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_sub_estab_event_roundtrip(self, time, token, subflow_id, tup, backup):
        event = SubflowEstablishedEvent(time, token, subflow_id, tup, backup)
        assert codec.decode_event(codec.encode_event(event)) == event

    @given(st.floats(min_value=0, max_value=1e6), tokens, st.integers(0, 65535), four_tuples,
           st.integers(min_value=-200, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_sub_closed_event_roundtrip(self, time, token, subflow_id, tup, reason):
        event = SubflowClosedEvent(time, token, subflow_id, tup, reason)
        assert codec.decode_event(codec.encode_event(event)) == event

    @given(tokens, st.integers(1, 1 << 30), addresses, ports, addresses, ports, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_create_subflow_roundtrip(self, token, request_id, local, lport, remote, rport, backup):
        command = CreateSubflowCommand(request_id, token, local, lport, remote, rport, backup)
        assert codec.decode_command(codec.encode_command(command)) == command

    @given(tokens, st.integers(1, 1 << 30), st.integers(0, 65535), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_remove_subflow_roundtrip(self, token, request_id, subflow_id, reset):
        command = RemoveSubflowCommand(request_id, token, subflow_id, reset)
        assert codec.decode_command(codec.encode_command(command)) == command

    #: One strategy per ``wire`` kind, spanning what the kind can carry.
    BY_KIND = {
        "I": st.integers(0, 0xFFFFFFFF),
        "H": ports,
        "B": st.integers(0, 0xFF),
        "i": st.integers(-(1 << 31), (1 << 31) - 1),
        "d": st.floats(allow_nan=False),
        "?": st.booleans(),
        "addr": addresses,
        "addr?": st.none() | addresses,
        "tuple": four_tuples,
        "str": st.text(st.characters(exclude_categories=["Cs"]), max_size=64),
    }

    @pytest.mark.parametrize(
        "encode, decode, number, cls",
        [(codec.encode_event, codec.decode_event, *row) for row in EVENT_CLASSES.items()]
        + [(codec.encode_command, codec.decode_command, *row) for row in COMMAND_CLASSES.items()],
        ids=lambda value: getattr(value, "__name__", ""),
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_class_roundtrips_over_its_own_wire_kinds(self, encode, decode, number, cls, data):
        entries = [entry.split(":") for entry in cls.wire.split()]
        message = data.draw(st.builds(cls, **{name: self.BY_KIND[kind] for name, kind in entries}))
        wire = encode(message)
        decoded = decode(wire)
        assert decoded == message and type(decoded) is cls
        assert encode(decoded) == wire
        assert codec.HEADER.unpack_from(wire) == (codec.message_kind(wire), number, len(wire) - codec.HEADER.size)

    @given(
        st.integers(1, 1 << 30),
        st.dictionaries(
            st.text(min_size=1, max_size=12),
            st.one_of(
                st.integers(min_value=-(1 << 40), max_value=1 << 40),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                st.text(max_size=20),
                st.booleans(),
                st.none(),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_reply_payload_roundtrip(self, request_id, payload):
        reply = CommandReply(request_id, ReplyStatus.OK, payload)
        decoded = codec.decode_reply(codec.encode_reply(reply))
        assert decoded.request_id == request_id
        assert decoded.payload == payload


class TestFourTupleProperties:
    @given(four_tuples)
    @settings(max_examples=200, deadline=None)
    def test_packed_roundtrip(self, tup):
        assert FourTuple.from_packed(tup.packed()) == tup

    @given(four_tuples)
    @settings(max_examples=200, deadline=None)
    def test_ecmp_key_symmetric(self, tup):
        assert tup.ecmp_key() == tup.reversed().ecmp_key()


class TestAnalysisProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e5, allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_cdf_invariants(self, samples):
        cdf = Cdf(samples)
        assert cdf.minimum <= cdf.median <= cdf.maximum
        assert cdf.probability_below(cdf.maximum) == 1.0
        assert 0.0 <= cdf.probability_below(cdf.minimum) <= 1.0
        assert cdf.percentile(0.0) == cdf.minimum
        assert cdf.percentile(1.0) == cdf.maximum
        fractions = [point[1] for point in cdf.points()]
        assert fractions == sorted(fractions)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_summary_invariants(self, samples):
        stats = summarize(samples)
        tolerance = 1e-9 * max(1.0, abs(stats.maximum), abs(stats.minimum))
        assert stats.minimum <= stats.p25 <= stats.median <= stats.p75 <= stats.maximum
        assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance
        assert stats.count == len(samples)
        assert stats.stddev >= 0

    @given(st.lists(st.one_of(st.none(), st.tuples(
        st.booleans(), st.floats(min_value=0.0, max_value=1e7, allow_nan=False))), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_telemetry_distribution_is_the_one_percentile(self, entries):
        """``runner telemetry`` interpolates with ``stats.percentile`` — the
        same function behind ``SummaryStats`` and the ``agg_*`` metrics —
        over the fresh cells' rates, and reports 0.0 when there are none."""
        from repro.analysis.stats import percentile
        from repro.obs.telemetry import CellTelemetry, summarize_telemetry

        cells = [
            entry and CellTelemetry(key=f"cell{index}", cached=entry[0], wall_time_s=1.0,
                                    sim_events=10, events_per_s=entry[1])
            for index, entry in enumerate(entries)
        ]
        rates = sorted(entry[1] for entry in entries if entry and not entry[0])
        distribution = summarize_telemetry(cells)["events_per_s_distribution"]
        assert distribution["p50"] == (percentile(rates, 0.50) if rates else 0.0)
        assert distribution["p95"] == (percentile(rates, 0.95) if rates else 0.0)
        if rates:
            assert rates[0] == distribution["min"] <= distribution["p50"]
            assert distribution["p50"] <= distribution["p95"] <= distribution["max"] == rates[-1]


# ----------------------------------------------------------------------
# scheduler properties
# ----------------------------------------------------------------------
from repro.mptcp.scheduler import (  # noqa: E402
    SCHEDULER_REGISTRY,
    available_schedulers,
    make_scheduler,
)


class _SchedFakeSocket:
    """Just enough socket surface for the schedulers."""

    def __init__(self, srtt, window, established):
        class _Rtt:
            pass

        self.rtt = _Rtt()
        self.rtt.srtt = srtt
        self._window = window
        self._established = established
        self.backup = False

    @property
    def is_established(self):
        return self._established

    @property
    def is_closed(self):
        return False

    def available_window(self):
        return self._window


class _SchedFakeFlow:
    def __init__(self, flow_id, srtt, window, backup, established):
        self.id = flow_id
        self.backup = backup
        self.socket = _SchedFakeSocket(srtt, window, established)
        self.is_usable = established
        self.is_established = established
        self.is_closed = False


flow_states = st.builds(
    lambda srtt, window, backup, established: (srtt, window, backup, established),
    # A few fixed values next to arbitrary floats so equal RTTs do occur.
    st.one_of(st.none(), st.sampled_from([0.01, 0.05]), st.floats(min_value=1e-4, max_value=2.0)),
    st.integers(min_value=0, max_value=100_000),
    st.booleans(),
    st.booleans(),
)
flow_sets = st.lists(flow_states, min_size=0, max_size=8).map(
    lambda states: [
        _SchedFakeFlow(index + 1, *state) for index, state in enumerate(states)
    ]
)


class TestSchedulerProperties:
    @given(st.sampled_from(sorted(SCHEDULER_REGISTRY)), flow_sets)
    @settings(max_examples=300, deadline=None)
    def test_selection_comes_from_eligible_set(self, name, flows):
        scheduler = make_scheduler(name)
        chosen = scheduler.select(flows, 1400)
        eligible = scheduler.eligible(flows)
        if chosen is None:
            assert eligible == []
        else:
            assert chosen in eligible

    @given(st.sampled_from(sorted(SCHEDULER_REGISTRY)), flow_sets)
    @settings(max_examples=300, deadline=None)
    def test_never_selects_unusable_or_windowless_subflow(self, name, flows):
        scheduler = make_scheduler(name)
        chosen = scheduler.select(flows, 1400)
        if chosen is not None:
            assert chosen.is_usable
            assert chosen.socket.available_window() > 0

    @given(flow_sets)
    @settings(max_examples=300, deadline=None)
    def test_backup_semantics(self, flows):
        """RFC 6824: backup subflows carry data only when no regular one can.

        Applies to every scheduler with the default eligibility rules; the
        redundant scheduler opts out of backup priority by design.
        """
        for name in ("lowest_rtt", "round_robin"):
            scheduler = make_scheduler(name)
            chosen = scheduler.select(flows, 1400)
            regular_available = any(
                flow.is_usable and not flow.backup and flow.socket.available_window() > 0
                for flow in flows
            )
            if chosen is not None and chosen.backup:
                assert not regular_available

    @given(st.lists(flow_sets, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_round_robin_stable_under_churn(self, generations):
        """Arbitrary subflow churn never desynchronises the rotation cursor."""
        scheduler = make_scheduler("round_robin")
        for flows in generations:
            for _ in range(len(flows) + 1):
                chosen = scheduler.select(flows, 1400)
                eligible = scheduler.eligible(flows)
                if eligible:
                    assert chosen in eligible
                else:
                    assert chosen is None

    def test_registry_round_trips(self):
        assert available_schedulers() == sorted(SCHEDULER_REGISTRY)
        for name in available_schedulers():
            scheduler = make_scheduler(name)
            assert isinstance(scheduler, SCHEDULER_REGISTRY[name])
            assert scheduler.name == name
            # Case-insensitive lookup is part of the contract.
            assert type(make_scheduler(name.upper())) is type(scheduler)


# ----------------------------------------------------------------------
# event kernel vs. reference heap
# ----------------------------------------------------------------------
# Written against the model, not the structure: whatever queue the kernel
# uses must be observationally identical to a literal heapq of (time, seq)
# pairs — events fire in (time, schedule-order) order, cancellation
# invalidates in place, compact() never changes what runs, and
# run(until=...) stops at the same point.  The delay strategy mixes arbitrary
# floats with a few exact values so same-time collisions are common; the
# 2 ms / 512 ms multiples were the bucket width and horizon of the calendar
# wheel this suite outlived and stay as arbitrary collision points.

_kernel_delays = st.one_of(
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 0.001, 0.002, 0.004, 0.256, 0.510, 0.512, 0.514, 1.0]),
)


class TestEventKernelProperties:
    @given(st.lists(_kernel_delays, min_size=1, max_size=80))
    @settings(max_examples=120, deadline=None)
    def test_execution_order_matches_reference_heap(self, delays):
        """Pop order equals a heapq over (time, schedule-order) pairs."""
        from repro.sim import Simulator

        sim = Simulator(seed=1)
        order = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, order.append, index)
        sim.run()
        reference = [index for _, index in sorted((d, i) for i, d in enumerate(delays))]
        assert order == reference
        assert sim.pending_events == 0
        assert sim.processed_events == len(delays)

    @given(st.lists(st.tuples(_kernel_delays, st.booleans()), min_size=1, max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_cancellation_by_invalidation(self, items):
        """Cancelled events never fire; survivors keep the reference order."""
        from repro.sim import Simulator

        sim = Simulator(seed=1)
        order = []
        events = [
            sim.schedule(delay, order.append, index)
            for index, (delay, _) in enumerate(items)
        ]
        for event, (_, cancel) in zip(events, items):
            if cancel:
                event.cancel()
        live = [(delay, index) for index, (delay, cancel) in enumerate(items) if not cancel]
        assert sim.pending_events == len(live)
        sim.run()
        assert order == [index for _, index in sorted(live)]

    @given(st.lists(st.tuples(_kernel_delays, _kernel_delays), min_size=1, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_cancel_during_run_matches_reference(self, pairs):
        """A canceller event stops its target iff it fires strictly first.

        The target is scheduled before its canceller, so at equal times the
        target's lower sequence number wins — exactly the flat-heap rule.
        """
        from repro.sim import Simulator

        sim = Simulator(seed=1)
        fired = []
        for index, (target_delay, cancel_delay) in enumerate(pairs):
            target = sim.schedule(target_delay, fired.append, index)
            sim.schedule(cancel_delay, sim.cancel, target)
        sim.run()
        expected = [index for index, (t, c) in enumerate(pairs) if t <= c]
        assert sorted(fired) == expected

    @given(st.lists(st.tuples(_kernel_delays, st.booleans()), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_compact_equivalence(self, items):
        """compact() after cancellations never changes observable behaviour."""
        from repro.sim import Simulator

        def trace(do_compact):
            sim = Simulator(seed=1)
            order = []
            events = [
                sim.schedule(delay, order.append, index)
                for index, (delay, _) in enumerate(items)
            ]
            for event, (_, cancel) in zip(events, items):
                if cancel:
                    event.cancel()
            if do_compact:
                sim.compact()
            sim.run()
            return order, sim.now, sim.processed_events, sim.pending_events

        assert trace(True) == trace(False)

    @given(
        st.lists(_kernel_delays, min_size=1, max_size=60),
        _kernel_delays,
    )
    @settings(max_examples=120, deadline=None)
    def test_run_until_stop_matches_reference(self, delays, until):
        """run(until=...) executes exactly the events at time <= until."""
        from repro.sim import Simulator

        sim = Simulator(seed=1)
        order = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, order.append, index)
        stopped_at = sim.run(until=until)
        ranked = sorted((d, i) for i, d in enumerate(delays))
        assert order == [index for delay, index in ranked if delay <= until]
        assert stopped_at == until
        assert sim.now == until
        sim.run()
        assert order == [index for _, index in ranked]

    @given(st.lists(st.tuples(_kernel_delays, st.one_of(st.none(), _kernel_delays)),
                    min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_nested_scheduling_matches_reference_simulation(self, pairs):
        """Events scheduled from inside callbacks follow the same rule.

        Mirrors the run against a literal heapq simulation that assigns
        sequence numbers in the same order the kernel does (one per
        schedule call, in call order).
        """
        import heapq
        import itertools

        from repro.sim import Simulator

        sim = Simulator(seed=1)
        order = []

        def fire(index, follow_delay):
            order.append(index)
            if follow_delay is not None:
                sim.schedule(follow_delay, fire, index + 1000, None)

        for index, (delay, follow) in enumerate(pairs):
            sim.schedule(delay, fire, index, follow)
        sim.run()

        sequence = itertools.count()
        heap = []
        for index, (delay, follow) in enumerate(pairs):
            heapq.heappush(heap, (delay, next(sequence), index, follow))
        reference = []
        while heap:
            time_, _, index, follow = heapq.heappop(heap)
            reference.append(index)
            if follow is not None:
                heapq.heappush(heap, (time_ + follow, next(sequence), index + 1000, None))
        assert order == reference

    @given(st.lists(st.tuples(_kernel_delays, st.booleans()), min_size=1, max_size=60), _kernel_delays)
    @settings(max_examples=200, deadline=None)
    def test_compact_counts_cancelled_entries_behind_the_earliest_pending(self, items, until):
        """The ``events_compacted`` definition: what ``compact()`` finds after
        a run is every cancelled entry that sorts after the earliest
        still-pending event — nothing when no event is pending — whatever
        the distance between the two."""
        from repro.sim import Simulator

        sim = Simulator(seed=1)
        events = [sim.schedule(delay, lambda: None) for delay, _ in items]
        for event, (_, cancel) in zip(events, items):
            if cancel:
                event.cancel()
        sim.run(until=until)
        pending = [(delay, index) for index, (delay, cancel) in enumerate(items)
                   if not cancel and delay > until]
        debris = [(delay, index) for index, (delay, cancel) in enumerate(items)
                  if cancel and pending and (delay, index) > min(pending)]
        assert sim.queued_entries == len(pending) + len(debris)
        assert sim.compact() == len(debris)
        assert sim.queued_entries == sim.pending_events == len(pending)

    @given(st.lists(st.tuples(st.sampled_from(["schedule", "pooled", "rearm"]), _kernel_delays,
                              st.one_of(st.none(), _kernel_delays)), min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_pooled_and_rearmed_events_match_reference_simulation(self, ops):
        """``schedule_pooled`` and ``rearm`` draw from the same sequence as
        ``schedule``: interleaved, the three fire in literal-heapq order, and
        a recycled pool event carries its new label, never a stale one."""
        import heapq
        import itertools

        from repro.sim import Simulator

        sim = Simulator(seed=1)
        order = []
        handles = {}

        def fire(index, kind, follow):
            order.append(index)
            if follow is None:
                return
            if kind == "schedule":
                sim.schedule(follow, fire, index + 1000, kind, None)
            elif kind == "pooled":
                sim.schedule_pooled(follow, fire, index + 1000, kind, None)
            elif index in handles:  # re-arm once: same event, same label, fresh seq
                sim.rearm(handles.pop(index), follow)

        for index, (kind, delay, follow) in enumerate(ops):
            if kind == "pooled":
                sim.schedule_pooled(delay, fire, index, kind, follow)
            else:
                handles[index] = sim.schedule(delay, fire, index, kind, follow)
        sim.run()

        sequence = itertools.count()
        heap = []
        for index, (kind, delay, follow) in enumerate(ops):
            heapq.heappush(heap, (delay, next(sequence), index, kind, follow))
        reference = []
        while heap:
            time_, _, index, kind, follow = heapq.heappop(heap)
            reference.append(index)
            if follow is not None:
                label = index if kind == "rearm" else index + 1000
                heapq.heappush(heap, (time_ + follow, next(sequence), label, kind, None))
        assert order == reference
        assert sim.pending_events == sim.queued_entries == 0
        assert sim.processed_events == len(reference)


# ----------------------------------------------------------------------
# window-independent ACK path vs. the scans it replaced
# ----------------------------------------------------------------------
# Four structures on the per-ACK path used to re-scan something
# window-sized on every call: the receiver rebuilt and re-sorted its
# out-of-order list, the SACK pass called ``SackOption.covers`` per queued
# segment, the lowest-RTT scheduler built three lists per pick, and LIA
# summed over its coupling group three times per ACK.  The replacements
# (bisect + splice, inlined block test, one-pass select, one-pass coupling
# terms) must be observationally identical — committed baselines are byte
# exact — so the old bodies live on here as the oracles.

from repro.mptcp.scheduler import LowestRttScheduler  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.tcp.buffers import SentSegment  # noqa: E402
from repro.tcp.congestion import CouplingGroup, LiaCongestionControl  # noqa: E402
from repro.tcp.options import SackOption  # noqa: E402
from repro.tcp.socket import TcpSocket, TcpState  # noqa: E402


class _RebuildAndSortReassembly:
    """The pre-bisect ``ReceiveReassembly``: every insert walks, rebuilds and
    re-sorts the whole out-of-order list."""

    def __init__(self, initial_seq=0):
        self.rcv_nxt = initial_seq
        self._out_of_order = []  # [start, end, stamp]
        self.duplicate_bytes = 0
        self._stamp = 0

    @property
    def out_of_order_ranges(self):
        return [(start, end) for start, end, _ in self._out_of_order]

    def sack_blocks(self, limit=4):
        ordered = sorted(self._out_of_order, key=lambda r: r[2], reverse=True)
        return [(start, end) for start, end, _ in ordered[:limit]]

    def consume_fin(self, fin_seq):
        # What TcpSocket._process_fin used to assign from outside.
        self.rcv_nxt = max(self.rcv_nxt, fin_seq + 1)

    def register(self, seq, length):
        if length == 0:
            return 0
        start, end = seq, seq + length
        if end <= self.rcv_nxt:
            self.duplicate_bytes += length
            return 0
        if start < self.rcv_nxt:
            self.duplicate_bytes += self.rcv_nxt - start
            start = self.rcv_nxt
        if start == self.rcv_nxt and not self._out_of_order:
            self.rcv_nxt = end
            return end - start
        new_bytes = end - start
        merged = []
        for existing in self._out_of_order:
            if existing[1] < start or existing[0] > end:
                merged.append(existing)
                continue
            overlap = min(end, existing[1]) - max(start, existing[0])
            if overlap > 0:
                self.duplicate_bytes += overlap
                new_bytes -= overlap
            start = min(start, existing[0])
            end = max(end, existing[1])
        self._stamp += 1
        merged.append([start, end, self._stamp])
        merged.sort(key=lambda r: r[0])
        self._out_of_order = merged
        while self._out_of_order and self._out_of_order[0][0] <= self.rcv_nxt:
            head = self._out_of_order.pop(0)
            if head[1] > self.rcv_nxt:
                self.rcv_nxt = head[1]
        return max(new_bytes, 0)


# Arbitrary byte ranges next to segment-aligned ones: the aligned half is
# what makes exact adjacency, exact duplicates and multi-range bridges common.
_reassembly_chunks = st.lists(
    st.one_of(
        st.tuples(st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=60)),
        st.tuples(
            st.integers(min_value=0, max_value=40).map(lambda n: n * 10),
            st.integers(min_value=1, max_value=6).map(lambda n: n * 10),
        ),
        # A FIN (length None) may step rcv_nxt over buffered ranges, which the
        # next register then has to consume several at a time.
        st.tuples(st.integers(min_value=0, max_value=400), st.none()),
    ),
    min_size=1,
    max_size=80,
)


def _socket_with_queue(lengths, flags):
    """An established bare socket at t=10 s whose retransmission queue holds
    one segment per length, flagged ``(retransmitted, sacked, sent_at)``."""
    sim = Simulator(seed=1)
    sim.run(until=10.0)
    emitted = []
    sock = TcpSocket(sim, "10.0.0.1", 1000, "10.0.0.2", 80, transmit=emitted.append)
    sock.state = TcpState.ESTABLISHED
    sock.snd_una = sock.snd_nxt = 1
    for length, (retransmitted, sacked, sent_at) in zip(lengths, flags):
        sock._rtx_queue.push(SentSegment(
            sock.snd_nxt, length, None, sent_at, sent_at,
            retransmitted=retransmitted, sacked=sacked,
        ))
        sock.snd_nxt += length
    return sock, emitted


class TestAckPathOracles:
    @given(_reassembly_chunks, st.integers(min_value=0, max_value=50))
    @settings(max_examples=400, deadline=None)
    def test_reassembly_matches_rebuild_and_sort(self, chunks, initial_seq):
        reasm = ReceiveReassembly(initial_seq)
        oracle = _RebuildAndSortReassembly(initial_seq)
        fin_consumed = False
        for start, length in chunks:
            if length is None:
                reasm.consume_fin(start)
                oracle.consume_fin(start)
                assert reasm.rcv_nxt == oracle.rcv_nxt
                fin_consumed = True
                continue
            assert reasm.register(start, length) == oracle.register(start, length)
            assert reasm.rcv_nxt == oracle.rcv_nxt
            assert reasm.out_of_order_ranges == oracle.out_of_order_ranges
            assert reasm.has_out_of_order == bool(oracle.out_of_order_ranges)
            assert reasm.duplicate_bytes == oracle.duplicate_bytes
            assert reasm.sack_blocks() == oracle.sack_blocks()
            assert reasm.sack_blocks(2) == oracle.sack_blocks(2)
            ranges = reasm.out_of_order_ranges
            # Sorted, disjoint, non-adjacent, and (for a stream that does
            # not carry data past its FIN) strictly above rcv_nxt.
            assert all(a < b for a, b in ranges)
            assert all(a[1] < b[0] for a, b in zip(ranges, ranges[1:]))
            assert fin_consumed or not ranges or ranges[0][0] > reasm.rcv_nxt

    @given(
        st.lists(flow_states, min_size=0, max_size=8).flatmap(
            lambda states: st.permutations(
                [_SchedFakeFlow(index + 1, *state) for index, state in enumerate(states)]
            )
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_lowest_rtt_select_is_the_argmin_over_eligible(self, flows):
        scheduler = LowestRttScheduler()

        def key(flow):
            srtt = flow.socket.rtt.srtt
            return (srtt is not None, srtt if srtt is not None else 0.0, flow.id)

        candidates = scheduler.eligible(flows)
        expected = min(candidates, key=key) if candidates else None
        assert scheduler.select(flows, 1400) is expected

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_sack_pass_matches_the_covers_scan(self, data):
        lengths = data.draw(st.lists(st.integers(min_value=1, max_value=1400), min_size=1, max_size=24))
        # Mostly fresh segments, so that one SACK can mark more of them lost
        # than a single retransmission budget serves.
        rarely = st.sampled_from([False, False, False, True])
        flags = [
            data.draw(st.tuples(rarely, rarely, st.floats(min_value=0.0, max_value=9.0)))
            for _ in lengths
        ]
        bounds = [1]
        for length in lengths:
            bounds.append(bounds[-1] + length)

        def build():
            return _socket_with_queue(lengths, flags)

        def snapshot(sock, emitted):
            return (
                [(s.seq, s.sacked, s.lost, s.retransmitted, s.transmissions)
                 for s in sock._rtx_queue.segments],
                (sock.rtt.srtt, sock.rtt.rttvar, sock.rtt.rto),
                sock.lost_events,
                sock.total_retransmissions,
                (sock.congestion.cwnd, sock.congestion.ssthresh, sock.congestion.fast_recovery),
                sock._rto_timer.armed,
                [(segment.seq, segment.payload_len) for segment in emitted],
            )

        def reference_process_sack(sock, sack):
            highest = max(end for _, end in sack.blocks)
            newly_lost = False
            newest_sample = None
            for sent in sock._rtx_queue.segments:
                if not sent.sacked and sack.covers(sent.seq, sent.end_seq):
                    sent.sacked = True
                    sent.lost = False
                    if not sent.retransmitted:
                        newest_sample = sock._sim.now - sent.first_sent_at
                elif (
                    not sent.sacked
                    and not sent.lost
                    and not sent.retransmitted
                    and sent.end_seq <= highest
                ):
                    sent.lost = True
                    newly_lost = True
            if newest_sample is not None:
                sock.rtt.add_sample(newest_sample)
                sock._propagate_rtt()
            if newly_lost and not sock.congestion.fast_recovery:
                sock.lost_events += 1
                sock.congestion.on_fast_retransmit(sock.in_flight, sock.snd_nxt)

        def reference_retransmit_lost(sock, budget=3):
            sent_any = False
            for sent in sock._rtx_queue.segments:
                if budget <= 0:
                    break
                if sent.lost and not sent.sacked:
                    sock._retransmit(sent)
                    sent.lost = False
                    budget -= 1
                    sent_any = True
            if sent_any and not sock._rto_timer.armed:
                sock._rto_timer.start(sock.rtt.rto)

        # Blocks snap to segment boundaries (the only ones a real receiver
        # reports) or fall anywhere, including beyond snd_nxt.
        edge = st.one_of(st.sampled_from(bounds), st.integers(min_value=0, max_value=bounds[-1] + 50))
        block = st.tuples(edge, edge).filter(lambda b: b[0] != b[1]).map(lambda b: (min(b), max(b)))
        steps = data.draw(st.lists(
            st.one_of(
                st.lists(block, min_size=1, max_size=4).map(tuple),
                st.sampled_from(bounds),
            ),
            min_size=1,
            max_size=8,
        ))
        # The same option often arrives again (every duplicate ACK repeats
        # the blocks): that is when the retransmission budget's leftovers
        # get served.
        steps = [step for step in steps for _ in range(2 if isinstance(step, tuple) else 1)]

        sock, emitted = build()
        oracle, oracle_emitted = build()
        for step in steps:
            if isinstance(step, tuple):
                sack = SackOption(blocks=step)
                sock._process_sack(sack)
                sock._retransmit_lost()
                reference_process_sack(oracle, sack)
                reference_retransmit_lost(oracle)
            elif step > sock.snd_una:
                # A cumulative ACK strips the front of both queues (marks
                # and all) between SACK passes.
                for each in (sock, oracle):
                    each._rtx_queue.ack_upto(step)
                    each.snd_una = step
            assert snapshot(sock, emitted) == snapshot(oracle, oracle_emitted)

    def test_retransmission_budget_leftovers_wait_for_the_next_ack(self):
        """Five segments marked lost by one SACK, three retransmissions per
        ACK: the remaining two go out on the next ACK even though it marks
        nothing new, and the one after that finds nothing to do."""
        sock, emitted = _socket_with_queue([100] * 6, [(False, False, 9.0)] * 6)
        sack = SackOption(blocks=((501, 601),))
        served = []
        for _ in range(3):
            sock._process_sack(sack)
            sock._retransmit_lost()
            served.append([segment.seq for segment in emitted])
            emitted.clear()
        assert served == [[1, 101, 201], [301, 401], []]
        assert sock.lost_events == 1

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=400_000),
                st.one_of(st.none(), st.just(0.0), st.sampled_from([0.01, 0.05]),
                          st.floats(min_value=1e-4, max_value=2.0)),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=1, max_value=3 * 1400),
    )
    @settings(max_examples=500, deadline=None)
    def test_lia_increase_is_bit_equal_to_alpha_times_total(self, members, acked_bytes):
        mss = 1400
        group = CouplingGroup()
        controllers = []
        for cwnd, srtt, detached in members:
            controller = LiaCongestionControl(mss, 10, 1 << 30, group)
            controller.cwnd = cwnd
            controller.observe_rtt(srtt)
            controllers.append((controller, detached))
        for controller, detached in controllers:
            if detached:
                controller.detach()

        def reference_total_cwnd():
            return sum(member.cwnd for member in group.members)

        def reference_alpha():
            best = 0.0
            denominator = 0.0
            for member in group.members:
                rtt = member.smoothed_rtt
                if rtt is None or rtt <= 0:
                    continue
                cwnd_segments = member.cwnd / member.mss
                best = max(best, cwnd_segments / (rtt * rtt))
                denominator += cwnd_segments / rtt
            if best <= 0.0 or denominator <= 0.0:
                return 1.0
            total_segments = reference_total_cwnd() / max(group.members[0].mss, 1)
            return total_segments * best / (denominator * denominator)

        assert group.total_cwnd() == reference_total_cwnd()
        assert group.alpha() == reference_alpha()
        # Detached controllers keep acknowledging data until their socket is
        # torn down, against a group they are no longer part of.
        for controller, _ in controllers:
            total = max(reference_total_cwnd(), mss)
            coupled = reference_alpha() * acked_bytes * mss / total
            uncoupled = acked_bytes * mss / max(controller.cwnd, 1)
            expected = max(int(min(coupled, uncoupled)), 1)
            increase = controller._congestion_avoidance_increase(acked_bytes)
            assert increase == expected and type(increase) is int


# ----------------------------------------------------------------------
# the send loop vs. the per-chunk loop it replaced
# ----------------------------------------------------------------------
# ``MptcpConnection._push_data`` asks the scheduler once per flight
# (``pick`` -> subflow, window, alone) where it used to ask once per chunk
# and once more to learn that every window was shut.  The replaced loop and
# the three ``select`` bodies it called live on here, verbatim, as the
# oracle: on stub subflows whose ``send_data(n)`` lowers their window by
# ``n`` (what a socket's does), both loops must hand the same chunks to the
# same subflows in the same order and leave the same state behind.
from collections import deque  # noqa: E402

from repro.mptcp.config import MptcpConfig  # noqa: E402
from repro.mptcp.connection import DssMapping, MptcpConnection  # noqa: E402
from repro.mptcp.stack import MptcpStack  # noqa: E402
from repro.net.host import Host  # noqa: E402
from repro.obs import EventLog  # noqa: E402

_LOOP_MSS = MptcpConfig().tcp.mss


def _parent_select(scheduler, subflows):
    """The ``select`` bodies of the three schedulers before ``pick``."""
    if scheduler.name == "lowest_rtt":
        best = None
        best_srtt = None
        regular_usable = False
        for flow in subflows:
            if not flow.is_usable:
                continue
            if flow.backup:
                if regular_usable:
                    continue
            elif not regular_usable:
                regular_usable = True
                best = None
            socket = flow.socket
            if socket.available_window() <= 0:
                continue
            srtt = socket.rtt.srtt
            if best is not None:
                if best_srtt is None:
                    if srtt is not None or flow.id >= best.id:
                        continue
                elif srtt is not None and (
                    srtt > best_srtt or (srtt == best_srtt and flow.id >= best.id)
                ):
                    continue
            best = flow
            best_srtt = srtt
        return best
    if scheduler.name == "round_robin":
        candidates = sorted(scheduler.eligible(subflows), key=lambda flow: flow.id)
        if not candidates:
            return None
        cursor_alive = scheduler._last_id is not None and any(
            flow.id == scheduler._last_id and not flow.is_closed for flow in subflows
        )
        if scheduler._last_id is not None and not cursor_alive:
            scheduler._last_id = None
        if scheduler._last_id is not None:
            for flow in candidates:
                if flow.id > scheduler._last_id:
                    scheduler._last_id = flow.id
                    return flow
        chosen = candidates[0]
        scheduler._last_id = chosen.id
        return chosen
    assert scheduler.name == "redundant"
    candidates = scheduler.eligible(subflows)
    if not candidates:
        return None

    def key(flow):
        srtt = flow.socket.rtt.srtt
        return (srtt is not None, srtt if srtt is not None else 0.0, flow.id)

    return min(candidates, key=key)


def _parent_push_data(self):
    """``MptcpConnection._push_data`` before ``pick``: one ``select`` per
    chunk, ``available_window()`` re-read for each."""
    if self.closed:
        return
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
        else:
            flow = _parent_select(self._scheduler, self._subflows)
        if flow is None:
            break
        window = flow.socket.available_window()
        if window <= 0:
            break
        send_len = chunk if chunk <= window else window
        mapping = DssMapping(start, send_len)
        if not flow.socket.send_data(send_len, mapping):
            break
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


class _LoopSocket(_SchedFakeSocket):
    """A scheduler stub that also takes data: ``send_data(n)`` keeps the
    socket's own window test and lowers the window by exactly ``n``."""

    def __init__(self, flow_id, srtt, window, established, accepts, sent):
        super().__init__(srtt, window, established)
        self.rtt.rto = 1.0
        self._flow_id = flow_id
        self._accepts = accepts
        self._sent = sent

    def send_data(self, length, metadata):
        if length > self._window or self._accepts == 0:
            return False
        if self._accepts is not None:
            self._accepts -= 1
        self._window -= length
        self._sent.append((self._flow_id, metadata.data_seq, metadata.length))
        return True


class _LoopFlow(_SchedFakeFlow):
    def __init__(self, flow_id, srtt, window, backup, established, accepts, sent):
        super().__init__(flow_id, srtt, window, backup, established)
        self.socket = _LoopSocket(flow_id, srtt, window, established, accepts, sent)
        self.bytes_scheduled = 0
        self.fallback_bytes = 0


loop_windows = st.one_of(
    st.integers(min_value=0, max_value=5).map(lambda segments: segments * _LOOP_MSS),
    st.integers(min_value=0, max_value=5 * _LOOP_MSS),
)
loop_flow_states = st.tuples(
    st.integers(min_value=1, max_value=9),  # id
    st.one_of(st.none(), st.sampled_from([0.01, 0.05]), st.floats(min_value=1e-4, max_value=2.0)),
    loop_windows,
    st.booleans(),  # backup
    st.sampled_from([True, True, True, False]),  # usable
    # Sends the socket accepts before its state test refuses (None: all).
    st.sampled_from([None, None, None, None, 0, 1, 3]),
)
loop_flow_sets = st.lists(
    loop_flow_states, min_size=1, max_size=6, unique_by=lambda state: state[0]
)
# Unassigned ranges: (gap before, length) with sub-MSS tails, then how much
# of the total the peer has already acknowledged at the data level.
loop_ranges = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 0, 1, _LOOP_MSS]),
        st.one_of(
            st.integers(min_value=1, max_value=3 * _LOOP_MSS + 700),
            st.integers(min_value=1, max_value=4).map(lambda segments: segments * _LOOP_MSS),
        ),
    ),
    min_size=0, max_size=5,
)


def _loop_connection(name, flow_states, ranges, acked_share, fallback, cursor, loop):
    """A real connection over stub subflows, pushed once by ``loop``."""
    sim = Simulator(seed=1)
    sim.event_log = EventLog(categories=["scheduler"])
    stack = MptcpStack(sim, Host(sim, "h"), config=MptcpConfig(scheduler=name))
    conn = MptcpConnection(
        stack, None, make_scheduler(name), local_key=7, is_client=True,
        remote_address="10.0.0.2", remote_port=80,
    )
    sent: list = []
    conn._subflows = [_LoopFlow(*state, sent) for state in flow_states]
    position = 0
    for gap, length in ranges:
        conn._unassigned.append((position + gap, position + gap + length))
        position += gap + length
    conn._data_write_nxt = position
    conn._data_una = int(position * acked_share)
    conn.is_fallback = fallback
    if name == "round_robin":
        conn._scheduler._last_id = cursor
    loop(conn)
    return {
        "sent": sent,
        "bytes_scheduled": [(f.id, f.bytes_scheduled, f.fallback_bytes) for f in conn._subflows],
        "windows": [(f.id, f.socket.available_window()) for f in conn._subflows],
        "unassigned": list(conn._unassigned),
        "cursor": getattr(conn._scheduler, "_last_id", None),
        "fallback_bytes_sent": conn.fallback_bytes_sent,
        "trace": [(e.time, e.category, e.name, e.subject, e.detail) for e in sim.event_log],
        "meta_timer": conn._meta_rtx_timer.expiry,
    }


class TestSendLoopOracle:
    @given(
        st.sampled_from(sorted(SCHEDULER_REGISTRY)),
        loop_flow_sets,
        loop_ranges,
        st.sampled_from([0.0, 0.0, 0.3, 1.0]),
        st.sampled_from([False, False, False, True]),
        st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
    )
    @settings(max_examples=600, deadline=None)
    def test_one_pass_per_flight_sends_what_one_pass_per_chunk_sent(
        self, name, flow_states, ranges, acked_share, fallback, cursor
    ):
        setup = (name, flow_states, ranges, acked_share, fallback, cursor)
        new = _loop_connection(*setup, MptcpConnection._push_data)
        old = _loop_connection(*setup, _parent_push_data)
        assert new == old
        # Every chunk left with a trace event saying so.
        assert [(d["subflow"], d["data_seq"], d["length"]) for *_, d in new["trace"]] == new["sent"]

    @given(
        st.sampled_from(sorted(SCHEDULER_REGISTRY)),
        loop_flow_sets.flatmap(st.permutations),
        st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
    )
    @settings(max_examples=600, deadline=None)
    def test_pick_names_what_select_named_and_alone_means_one_open_subflow(
        self, name, flow_states, cursor
    ):
        flows = [_LoopFlow(*state, []) for state in flow_states]
        scheduler, selecting, twin = (make_scheduler(name) for _ in range(3))
        if name == "round_robin":
            scheduler._last_id = selecting._last_id = twin._last_id = cursor
        expected = _parent_select(twin, flows)
        picked = scheduler.pick(flows)
        # ``select`` is the same answer reduced to the subflow.
        assert selecting.select(flows, _LOOP_MSS) is expected
        for candidate in (scheduler, selecting):
            assert getattr(candidate, "_last_id", None) == getattr(twin, "_last_id", None)
        if expected is None:
            assert picked is None and scheduler.eligible(flows) == []
            return
        flow, window, alone = picked
        assert flow is expected
        assert window == flow.socket.available_window() > 0
        assert alone is (len(scheduler.eligible(flows)) == 1)
