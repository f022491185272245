"""Unit tests for MPTCP options, tokens, schedulers and configuration."""

import dataclasses

import pytest

from repro.mptcp.config import MptcpConfig
from repro.mptcp.options import (
    AddAddrOption,
    DssOption,
    MpCapableOption,
    MpJoinOption,
    MpPrioOption,
    RemoveAddrOption,
)
from repro.mptcp.scheduler import (
    LowestRttScheduler,
    RedundantScheduler,
    RoundRobinScheduler,
    make_scheduler,
)
from repro.mptcp.subflow import Subflow, SubflowOrigin
from repro.mptcp.token import derive_initial_data_seq, derive_token, generate_key
from repro.sim.randomness import RandomSource
from repro.tcp.config import TcpConfig


class TestOptions:
    def test_mp_capable_validation(self):
        MpCapableOption(sender_key=1)
        with pytest.raises(ValueError):
            MpCapableOption(sender_key=1 << 64)
        with pytest.raises(ValueError):
            MpCapableOption(sender_key=1, receiver_key=1 << 64)

    def test_mp_join_validation(self):
        MpJoinOption(token=5, address_id=3, backup=True)
        with pytest.raises(ValueError):
            MpJoinOption(token=1 << 32)
        with pytest.raises(ValueError):
            MpJoinOption(token=1, address_id=300)

    def test_dss_mapping_helpers(self):
        dss = DssOption(data_seq=100, data_len=50, data_ack=20)
        assert dss.has_mapping
        assert dss.mapping_end == 150
        ack_only = DssOption(data_ack=20)
        assert not ack_only.has_mapping
        with pytest.raises(ValueError):
            ack_only.mapping_end

    def test_dss_validation(self):
        with pytest.raises(ValueError):
            DssOption(data_seq=-1, data_len=10)
        with pytest.raises(ValueError):
            DssOption(data_len=-1)

    def test_dss_value_semantics(self):
        """Equality, hashing and repr over all five fields, as the frozen
        dataclass had; the data_ack check stands next to the other two."""
        dss = DssOption(data_seq=100, data_len=50, data_ack=20)
        same = DssOption(data_seq=100, data_len=50, data_ack=20)
        assert dss == same and dss is not same
        assert hash(dss) == hash(same) == hash((100, 50, 20, False, 20))
        assert len({dss, same, DssOption(data_ack=20)}) == 2
        assert dss != DssOption(data_seq=100, data_len=50, data_ack=20, data_fin=True)
        assert dss != (100, 50, 20, False, 20)
        assert repr(dss) == (
            "DssOption(data_seq=100, data_len=50, data_ack=20, data_fin=False, wire_length=20)"
        )
        assert [field.name for field in dataclasses.fields(DssOption)] == [
            "data_seq", "data_len", "data_ack", "data_fin", "wire_length",
        ]
        assert not hasattr(dss, "__dict__")
        with pytest.raises(ValueError, match="data_ack"):
            DssOption(data_ack=-1)

    def test_dss_mapping_value_semantics(self):
        from repro.mptcp.connection import DssMapping

        mapping = DssMapping(7, 1400)
        assert mapping == DssMapping(data_seq=7, length=1400)
        assert mapping != DssMapping(7, 1399)
        assert hash(mapping) == hash(DssMapping(7, 1400)) == hash((7, 1400))
        assert repr(mapping) == "DssMapping(data_seq=7, length=1400)"
        assert mapping.end == 1407
        assert not hasattr(mapping, "__dict__")

    def test_add_addr_validation(self):
        from repro.net.addressing import ip

        AddAddrOption(address_id=1, address=ip("10.0.0.1"))
        with pytest.raises(ValueError):
            AddAddrOption(address_id=256, address=ip("10.0.0.1"))

    def test_remove_addr_validation(self):
        RemoveAddrOption(address_id=1)
        with pytest.raises(ValueError):
            RemoveAddrOption(address_id=-1)

    def test_wire_lengths(self):
        assert MpCapableOption(sender_key=1).wire_length == 12
        assert MpJoinOption(token=1).wire_length == 12
        assert DssOption(data_ack=1).wire_length == 20
        assert MpPrioOption(backup=True).wire_length == 4


class TestTokens:
    def test_token_is_deterministic(self):
        assert derive_token(0x1234) == derive_token(0x1234)

    def test_token_differs_across_keys(self):
        assert derive_token(1) != derive_token(2)

    def test_token_fits_32_bits(self):
        for key in (0, 1, 0xFFFFFFFFFFFFFFFF):
            assert 0 <= derive_token(key) < (1 << 32)

    def test_invalid_key_rejected(self):
        with pytest.raises(ValueError):
            derive_token(1 << 64)
        with pytest.raises(ValueError):
            derive_initial_data_seq(-1)

    def test_generate_key_range_and_determinism(self):
        rng = RandomSource(5)
        key = generate_key(rng)
        assert 0 <= key < (1 << 64)
        assert generate_key(RandomSource(5)) == generate_key(RandomSource(5))

    def test_initial_data_seq(self):
        assert 0 <= derive_initial_data_seq(42) < (1 << 32)


class FakeSocket:
    """A stand-in socket exposing only what the schedulers look at."""

    def __init__(self, srtt, window, established=True):
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

    @property
    def send_space(self):
        # What a TcpSocket keeps in its ``send_space`` attribute, and what
        # schedulers read.
        return self._window


def make_flow(flow_id, srtt, window, backup=False, established=True):
    import types

    flow = types.SimpleNamespace()
    flow.id = flow_id
    flow.backup = backup
    flow.socket = FakeSocket(srtt, window, established)
    flow.is_usable = established
    flow.is_established = established
    flow.is_closed = False
    return flow


class TestSchedulers:
    def test_lowest_rtt_prefers_smaller_srtt(self):
        scheduler = LowestRttScheduler()
        flows = [make_flow(1, 0.05, 10_000), make_flow(2, 0.01, 10_000)]
        assert scheduler.select(flows, 1400).id == 2

    def test_lowest_rtt_prefers_unmeasured_subflow(self):
        scheduler = LowestRttScheduler()
        flows = [make_flow(1, 0.01, 10_000), make_flow(2, None, 10_000)]
        assert scheduler.select(flows, 1400).id == 2

    def test_window_exhausted_subflow_skipped(self):
        scheduler = LowestRttScheduler()
        flows = [make_flow(1, 0.01, 0), make_flow(2, 0.05, 10_000)]
        assert scheduler.select(flows, 1400).id == 2

    def test_returns_none_when_nothing_usable(self):
        scheduler = LowestRttScheduler()
        assert scheduler.select([make_flow(1, 0.01, 0)], 1400) is None
        assert scheduler.select([], 1400) is None

    def test_backup_only_used_when_no_regular_subflow(self):
        scheduler = LowestRttScheduler()
        backup = make_flow(1, 0.01, 10_000, backup=True)
        regular = make_flow(2, 0.20, 10_000)
        assert scheduler.select([backup, regular], 1400).id == 2
        assert scheduler.select([backup], 1400).id == 1

    def test_redundant_scheduler_ignores_backup_priority(self):
        scheduler = RedundantScheduler()
        backup = make_flow(1, 0.01, 10_000, backup=True)
        regular = make_flow(2, 0.20, 10_000)
        assert scheduler.select([backup, regular], 1400).id == 1

    def test_round_robin_cycles(self):
        scheduler = RoundRobinScheduler()
        flows = [make_flow(1, 0.01, 10_000), make_flow(2, 0.01, 10_000), make_flow(3, 0.01, 10_000)]
        picks = [scheduler.select(flows, 1400).id for _ in range(6)]
        assert picks == [1, 2, 3, 1, 2, 3]

    def test_select_needs_window_for_the_whole_chunk(self):
        flows = [make_flow(1, 0.01, 500), make_flow(2, 0.05, 1399)]
        for name in ("lowest_rtt", "round_robin", "redundant"):
            assert make_scheduler(name).select(flows, 1400) is None
            assert make_scheduler(name).select(flows, 1) is not None
        scheduler = LowestRttScheduler()
        assert scheduler.select(flows, 1000).id == 2
        assert scheduler.select(flows, 500).id == 1

    def test_factory(self):
        assert isinstance(make_scheduler("lowest_rtt"), LowestRttScheduler)
        assert isinstance(make_scheduler("round_robin"), RoundRobinScheduler)
        assert isinstance(make_scheduler("redundant"), RedundantScheduler)
        with pytest.raises(ValueError):
            make_scheduler("bogus")


class TestMptcpConfig:
    def test_defaults_valid(self):
        MptcpConfig().validate()

    def test_invalid_scheduler_rejected(self):
        with pytest.raises(ValueError):
            MptcpConfig(scheduler="bogus").validate()

    def test_invalid_max_subflows_rejected(self):
        with pytest.raises(ValueError):
            MptcpConfig(max_subflows=0).validate()

    def test_overrides(self):
        config = dataclasses.replace(MptcpConfig(), scheduler="round_robin", tcp=TcpConfig(mss=900))
        assert config.scheduler == "round_robin"
        assert config.tcp.mss == 900


class TestSubflow:
    def _subflow(self, sim, backup=False, origin=SubflowOrigin.INITIAL):
        from repro.net.addressing import ip
        from repro.tcp.socket import TcpSocket

        socket = TcpSocket(sim, ip("10.0.0.1"), 1000, ip("10.0.0.2"), 80, transmit=lambda seg: None)
        return Subflow(1, socket, origin, backup=backup)

    def test_initial_flag(self, sim):
        assert self._subflow(sim).is_initial
        assert not self._subflow(sim, origin=SubflowOrigin.CONTROLLER).is_initial

    def test_backup_flag_propagates_to_socket(self, sim):
        flow = self._subflow(sim, backup=True)
        assert flow.socket.backup is True

    def test_lifecycle_marks(self, sim):
        flow = self._subflow(sim)
        assert not flow.is_established
        flow.mark_established(1.0)
        assert flow.established_at == 1.0
        flow.mark_closed(2.0, 104)
        assert flow.is_closed
        assert flow.close_reason == 104
        # idempotent
        flow.mark_closed(3.0, 0)
        assert flow.closed_at == 2.0

    def test_info_snapshot(self, sim):
        flow = self._subflow(sim)
        assert flow.socket.info().state == "CLOSED"


class TestRoundRobinChurn:
    """The rotation cursor must survive subflows joining and leaving."""

    def test_cursor_resets_when_highest_id_subflow_leaves(self):
        scheduler = RoundRobinScheduler()
        flows = {flow_id: make_flow(flow_id, 0.01, 10_000) for flow_id in (1, 2, 5)}
        assert scheduler.select(list(flows.values()), 1400).id == 1
        assert scheduler.select(list(flows.values()), 1400).id == 2
        assert scheduler.select(list(flows.values()), 1400).id == 5
        # Subflow 5 (the one that set the cursor) is closed; the rotation
        # must restart cleanly over the survivors instead of staying pinned
        # past the now-stale id.
        del flows[5]
        picks = [scheduler.select(list(flows.values()), 1400).id for _ in range(4)]
        assert picks == [1, 2, 1, 2]
        assert scheduler._last_id == 2

    def test_cursor_survives_new_higher_id_subflow(self):
        scheduler = RoundRobinScheduler()
        flows = {flow_id: make_flow(flow_id, 0.01, 10_000) for flow_id in (1, 2)}
        assert scheduler.select(list(flows.values()), 1400).id == 1
        flows[3] = make_flow(3, 0.01, 10_000)
        assert scheduler.select(list(flows.values()), 1400).id == 2
        assert scheduler.select(list(flows.values()), 1400).id == 3
        assert scheduler.select(list(flows.values()), 1400).id == 1

    def test_full_churn_replaces_every_subflow(self):
        scheduler = RoundRobinScheduler()
        first_generation = [make_flow(1, 0.01, 10_000), make_flow(2, 0.01, 10_000)]
        assert scheduler.select(first_generation, 1400).id == 1
        assert scheduler.select(first_generation, 1400).id == 2
        # Entirely new subflow set with lower ids than the stale cursor.
        second_generation = [make_flow(1, 0.01, 10_000)]
        assert scheduler.select(second_generation, 1400).id == 1
        assert scheduler.select(second_generation, 1400).id == 1

    def test_stale_cursor_does_not_skip_low_id_survivors(self):
        scheduler = RoundRobinScheduler()
        flows = {flow_id: make_flow(flow_id, 0.01, 10_000) for flow_id in (1, 2, 5)}
        assert scheduler.select(list(flows.values()), 1400).id == 1
        assert scheduler.select(list(flows.values()), 1400).id == 2
        assert scheduler.select(list(flows.values()), 1400).id == 5
        # Subflow 5 is replaced by subflow 7.  A stale cursor at 5 would
        # hand the turn straight to 7; the rotation must restart instead so
        # flows 1 and 2 are not skipped.
        del flows[5]
        flows[7] = make_flow(7, 0.01, 10_000)
        picks = [scheduler.select(list(flows.values()), 1400).id for _ in range(4)]
        assert picks == [1, 2, 7, 1]

    def test_closed_subflow_in_unpruned_list_releases_cursor(self):
        """The connection never prunes its subflow list — a closed subflow
        stays in it.  The cursor must treat closed-but-listed as departed."""
        scheduler = RoundRobinScheduler()
        flows = {flow_id: make_flow(flow_id, 0.01, 10_000) for flow_id in (1, 2, 5)}
        assert scheduler.select(list(flows.values()), 1400).id == 1
        assert scheduler.select(list(flows.values()), 1400).id == 2
        assert scheduler.select(list(flows.values()), 1400).id == 5
        # Subflow 5 closes but remains in the list, and subflow 7 joins.
        flows[5].is_closed = True
        flows[5].is_usable = False
        flows[5].is_established = False
        flows[7] = make_flow(7, 0.01, 10_000)
        picks = [scheduler.select(list(flows.values()), 1400).id for _ in range(4)]
        assert picks == [1, 2, 7, 1]

    def test_cursor_cleared_rather_than_stale_after_wrap(self):
        scheduler = RoundRobinScheduler()
        flows = [make_flow(7, 0.01, 10_000)]
        assert scheduler.select(flows, 1400).id == 7
        assert scheduler.select(flows, 1400).id == 7
        assert scheduler._last_id == 7
