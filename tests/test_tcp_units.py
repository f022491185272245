"""Unit tests for the TCP building blocks (RTT, congestion, buffers, config)."""

import pytest

from repro.tcp.buffers import ReceiveReassembly, RetransmissionQueue, SentSegment
from repro.tcp.config import TcpConfig
from repro.tcp.congestion import (
    CouplingGroup,
    LiaCongestionControl,
    RenoCongestionControl,
    make_congestion_control,
)
from repro.tcp.options import SackOption
from repro.tcp.rtt import RttEstimator


class TestRttEstimator:
    def test_first_sample_initialises_srtt(self):
        est = RttEstimator()
        est.add_sample(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar == pytest.approx(0.05)

    def test_rto_respects_minimum(self):
        est = RttEstimator(rto_min=0.2)
        est.add_sample(0.01)
        assert est.rto >= 0.2

    def test_rto_formula_above_minimum(self):
        est = RttEstimator(rto_min=0.2)
        est.add_sample(0.5)
        assert est.rto == pytest.approx(0.5 + 4 * 0.25, rel=0.01)

    def test_smoothing_converges(self):
        est = RttEstimator()
        for _ in range(100):
            est.add_sample(0.05)
        assert est.srtt == pytest.approx(0.05, rel=0.01)
        assert est.rto == pytest.approx(0.2, abs=0.02)

    def test_exponential_backoff_and_reset(self):
        est = RttEstimator()
        est.add_sample(0.05)
        base = est.rto
        est.on_timeout()
        est.on_timeout()
        assert est.rto == pytest.approx(base * 4)
        assert est.backoff_exponent == 2
        est.reset_backoff()
        assert est.rto == pytest.approx(base)

    def test_new_sample_clears_backoff(self):
        est = RttEstimator()
        est.add_sample(0.05)
        est.on_timeout()
        est.add_sample(0.05)
        assert est.backoff_exponent == 0

    def test_rto_capped_at_maximum(self):
        est = RttEstimator(rto_max=10.0)
        est.add_sample(0.05)
        for _ in range(20):
            est.on_timeout()
        assert est.rto == 10.0

    def test_initial_rto_before_samples(self):
        est = RttEstimator(rto_initial=1.0)
        assert est.rto == 1.0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().add_sample(-0.1)

    def test_min_rtt_tracking(self):
        est = RttEstimator()
        est.add_sample(0.2)
        est.add_sample(0.05)
        est.add_sample(0.3)
        assert est.min_rtt == pytest.approx(0.05)
        assert est.samples == 3

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator(rto_min=0.5, rto_max=0.1)


class TestCongestionControl:
    def test_initial_window(self):
        cc = RenoCongestionControl(1400, 10, 1 << 30)
        assert cc.cwnd == 14000
        assert cc.in_slow_start

    def test_slow_start_doubles_per_window(self):
        cc = RenoCongestionControl(1400, 10, 1 << 30)
        cc.on_ack(14000, 14000)
        assert cc.cwnd == 28000

    def test_congestion_avoidance_linear(self):
        cc = RenoCongestionControl(1400, 10, initial_ssthresh=14000)
        start = cc.cwnd
        cc.on_ack(start, start)
        assert start < cc.cwnd <= start + 1400 + 1

    def test_fast_retransmit_halves(self):
        cc = RenoCongestionControl(1400, 10, 1 << 30)
        cc.on_fast_retransmit(flight_size=20000, snd_nxt=50000)
        assert cc.ssthresh == 10000
        assert cc.cwnd == 10000
        assert cc.fast_recovery

    def test_fast_retransmit_floor(self):
        cc = RenoCongestionControl(1400, 10, 1 << 30)
        cc.on_fast_retransmit(flight_size=1000, snd_nxt=1000)
        assert cc.ssthresh == 2800

    def test_no_growth_during_recovery(self):
        cc = RenoCongestionControl(1400, 10, 1 << 30)
        cc.on_fast_retransmit(20000, 50000)
        window = cc.cwnd
        cc.on_ack(5000, 20000)
        assert cc.cwnd == window

    def test_recovery_exit(self):
        cc = RenoCongestionControl(1400, 10, 1 << 30)
        cc.on_fast_retransmit(20000, 50000)
        assert cc.on_recovery_ack(40000) is False
        assert cc.on_recovery_ack(50000) is True
        assert not cc.fast_recovery

    def test_rto_collapses_to_one_segment(self):
        cc = RenoCongestionControl(1400, 10, 1 << 30)
        cc.on_retransmission_timeout()
        assert cc.cwnd == 1400
        assert not cc.fast_recovery

    def test_factory(self):
        assert isinstance(make_congestion_control("reno", 1400, 10, 1 << 30), RenoCongestionControl)
        assert isinstance(make_congestion_control("lia", 1400, 10, 1 << 30), LiaCongestionControl)
        with pytest.raises(ValueError):
            make_congestion_control("cubic", 1400, 10, 1 << 30)

    def test_invalid_mss_rejected(self):
        with pytest.raises(ValueError):
            RenoCongestionControl(0, 10, 1)


class TestLiaCoupling:
    def build_pair(self):
        group = CouplingGroup()
        a = LiaCongestionControl(1400, 10, 14000, group)
        b = LiaCongestionControl(1400, 10, 14000, group)
        return group, a, b

    def test_group_membership(self):
        group, a, b = self.build_pair()
        assert group.members == [a, b]
        a.detach()
        assert group.members == [b]

    def test_total_cwnd(self):
        group, a, b = self.build_pair()
        assert group.total_cwnd() == a.cwnd + b.cwnd

    def test_alpha_defaults_to_one_without_rtt(self):
        group, a, b = self.build_pair()
        assert group.alpha() == 1.0

    def test_coupled_increase_not_more_aggressive_than_reno(self):
        group, a, b = self.build_pair()
        a.observe_rtt(0.02)
        b.observe_rtt(0.02)
        reno = RenoCongestionControl(1400, 10, 14000)
        before_a, before_reno = a.cwnd, reno.cwnd
        a.on_ack(14000, 14000)
        reno.on_ack(14000, 14000)
        assert a.cwnd - before_a <= reno.cwnd - before_reno

    def test_alpha_positive_with_asymmetric_rtts(self):
        group, a, b = self.build_pair()
        a.observe_rtt(0.01)
        b.observe_rtt(0.1)
        assert group.alpha() > 0.0


class TestRetransmissionQueue:
    def test_ack_upto_removes_covered_segments(self):
        queue = RetransmissionQueue()
        queue.push(SentSegment(0, 100, "a", 0.0, 0.0))
        queue.push(SentSegment(100, 100, "b", 0.0, 0.0))
        acked = queue.ack_upto(100)
        assert [s.metadata for s in acked] == ["a"]
        assert len(queue) == 1

    def test_partial_coverage_keeps_segment(self):
        queue = RetransmissionQueue()
        queue.push(SentSegment(0, 100, "a", 0.0, 0.0))
        assert queue.ack_upto(50) == []
        assert len(queue) == 1

    def test_outstanding_and_metadata(self):
        queue = RetransmissionQueue()
        queue.push(SentSegment(0, 100, "a", 0.0, 0.0))
        queue.push(SentSegment(100, 200, None, 0.0, 0.0))
        assert queue.outstanding_bytes() == 300
        assert queue.metadata_items() == ["a"]

    def test_head_and_clear(self):
        queue = RetransmissionQueue()
        assert queue.head() is None
        queue.push(SentSegment(0, 100, "a", 0.0, 0.0))
        assert queue.head().metadata == "a"
        dropped = queue.clear()
        assert len(dropped) == 1 and not queue


class TestReceiveReassembly:
    def test_in_order_advance(self):
        reasm = ReceiveReassembly(0)
        assert reasm.register(0, 100) == 100
        assert reasm.rcv_nxt == 100

    def test_out_of_order_then_fill(self):
        reasm = ReceiveReassembly(0)
        assert reasm.register(100, 100) == 100
        assert reasm.rcv_nxt == 0
        assert reasm.register(0, 100) == 100
        assert reasm.rcv_nxt == 200
        assert reasm.out_of_order_ranges == []

    def test_duplicate_detection(self):
        reasm = ReceiveReassembly(0)
        reasm.register(0, 100)
        assert reasm.register(0, 100) == 0
        assert reasm.duplicate_bytes == 100

    def test_overlapping_ranges_merge(self):
        reasm = ReceiveReassembly(0)
        reasm.register(100, 100)
        reasm.register(150, 100)
        assert reasm.out_of_order_ranges == [(100, 250)]

    def test_partial_overlap_with_delivered_data(self):
        reasm = ReceiveReassembly(0)
        reasm.register(0, 100)
        assert reasm.register(50, 100) == 50
        assert reasm.rcv_nxt == 150

    def test_multiple_holes(self):
        reasm = ReceiveReassembly(0)
        reasm.register(100, 50)
        reasm.register(200, 50)
        assert reasm.out_of_order_ranges == [(100, 150), (200, 250)]
        reasm.register(0, 100)
        assert reasm.rcv_nxt == 150
        reasm.register(150, 50)
        assert reasm.rcv_nxt == 250

    def test_sack_blocks_recency_order(self):
        reasm = ReceiveReassembly(0)
        reasm.register(100, 50)
        reasm.register(200, 50)
        blocks = reasm.sack_blocks()
        assert blocks[0] == (200, 250)
        assert blocks[1] == (100, 150)

    def test_sack_blocks_limit(self):
        reasm = ReceiveReassembly(0)
        for index in range(6):
            reasm.register(100 + index * 100, 50)
        assert len(reasm.sack_blocks(4)) == 4

    def test_has_out_of_order_tracks_the_hole(self):
        reasm = ReceiveReassembly(0)
        assert not reasm.has_out_of_order
        reasm.register(100, 50)
        assert reasm.has_out_of_order
        reasm.register(0, 100)
        assert not reasm.has_out_of_order

    def test_adjacent_ranges_are_one_range(self):
        reasm = ReceiveReassembly(0)
        reasm.register(100, 50)
        reasm.register(200, 50)
        reasm.register(300, 50)
        # Bridges the first two exactly and leaves the third alone.
        assert reasm.register(150, 50) == 50
        assert reasm.out_of_order_ranges == [(100, 250), (300, 350)]
        assert reasm.sack_blocks() == [(100, 250), (300, 350)]

    def test_consume_fin_takes_one_sequence_number(self):
        reasm = ReceiveReassembly(0)
        reasm.register(0, 100)
        reasm.consume_fin(100)
        assert reasm.rcv_nxt == 101
        # A retransmitted FIN does not move it again.
        reasm.consume_fin(100)
        assert reasm.rcv_nxt == 101

    def test_zero_length_ignored(self):
        reasm = ReceiveReassembly(0)
        assert reasm.register(10, 0) == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            ReceiveReassembly(0).register(0, -1)

    def test_missing_before(self):
        reasm = ReceiveReassembly(0)
        reasm.register(0, 100)
        assert reasm.missing_before(200)
        assert not reasm.missing_before(100)


class TestSackOption:
    def test_limits(self):
        with pytest.raises(ValueError):
            SackOption(blocks=tuple((i, i + 1) for i in range(5)))
        with pytest.raises(ValueError):
            SackOption(blocks=((10, 10),))

    def test_covers_and_highest(self):
        sack = SackOption(blocks=((100, 200), (300, 400)))
        assert sack.covers(100, 150)
        assert sack.covers(350, 400)
        assert not sack.covers(150, 250)
        assert sack.highest == 400
        assert sack.wire_length == 2 + 16

    def test_highest_is_not_part_of_identity(self):
        sack = SackOption(blocks=((300, 400), (100, 200)))
        assert sack.highest == 400
        assert sack == SackOption(blocks=((300, 400), (100, 200)))
        assert repr(sack) == "SackOption(blocks=((300, 400), (100, 200)))"

    def test_empty_option_constructs(self):
        sack = SackOption(blocks=())
        assert sack.highest == 0
        assert not sack.covers(0, 1)


class TestTcpConfig:
    def test_defaults_valid(self):
        TcpConfig().validate()

    def test_overrides(self):
        config = TcpConfig().with_overrides(mss=9000, rto_min=0.05)
        assert config.mss == 9000
        assert config.rto_min == 0.05
        assert TcpConfig().mss == 1400

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            TcpConfig(mss=0).validate()
        with pytest.raises(ValueError):
            TcpConfig(rto_min=1.0, rto_max=0.5).validate()
        with pytest.raises(ValueError):
            TcpConfig(max_rto_doublings=0).validate()
        with pytest.raises(ValueError):
            TcpConfig(dupack_threshold=0).validate()
