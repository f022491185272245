"""Tests for the expanded netem scenario library."""

import pytest

from repro.apps.bulk import BulkReceiverApp, BulkSenderApp
from repro.faults.inject import fault_targets
from repro.mptcp.config import MptcpConfig
from repro.mptcp.path_manager import FullMeshPathManager
from repro.mptcp.stack import MptcpStack
from repro.net.middlebox import OptionStrippingMiddlebox
from repro.netem.scenarios import (
    Scenario,
    build_addaddr_stripped,
    build_asymmetric_loss,
    build_bufferbloat_cellular,
    build_path_failure_recovery,
    build_wifi_lte_handover,
)
from repro.sim.engine import Simulator
from repro.workloads.registry import SCENARIOS

PORT = 9100

_DUAL = ["path0", "path1"]
_STRIPPER = ["client-stripper", "direct", "stripper-server"]
_NAT = ["client-nat", "direct", "nat-server"]

#: ``sorted(fault_targets(...))`` of every registered scenario.
FAULT_TARGETS = {
    "dual_homed": _DUAL,
    "natted": _NAT,
    "ecmp": ["path0", "path1", "path2", "path3"],
    "lan": ["lan"],
    "wifi_lte_handover": _DUAL,
    "asymmetric_loss": _DUAL,
    "bufferbloat_cellular": _DUAL,
    "path_failure_recovery": _DUAL,
    "addaddr_stripped": _STRIPPER,
    "mpcapable_stripped": _STRIPPER,
    "mpcapable_stripped_synack": _STRIPPER,
    "faulted_dual_homed": _DUAL,
    "faulted_lan": ["lan"],
    "faulted_natted": _NAT,
    "faulted_path": ["client-mbox", "direct", "mbox-server"],
    "faulted_downgrade": _DUAL,
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_registered_scenario_is_one_scenario_type(name):
    scenario = SCENARIOS[name](Simulator(seed=1))
    assert isinstance(scenario, Scenario)
    assert sorted(fault_targets(scenario)) == FAULT_TARGETS[name]
    assert (scenario.fault_injector is not None) == name.startswith("faulted_")
    assert scenario.fallback_prone == name.startswith("mpcapable_stripped")


def _transfer(sim, scenario, total_bytes=60_000, horizon=15.0, fullmesh=True):
    """Run a client→server bulk transfer over the scenario's primary path."""
    receivers = []

    def factory():
        receivers.append(BulkReceiverApp(expected_bytes=total_bytes))
        return receivers[-1]

    MptcpStack(sim, scenario.server, config=MptcpConfig()).listen(PORT, factory)
    client_stack = MptcpStack(
        sim,
        scenario.client,
        config=MptcpConfig(),
        path_manager=FullMeshPathManager() if fullmesh else None,
    )
    sender = BulkSenderApp(total_bytes, close_when_done=True)
    conn = client_stack.connect(
        scenario.server_addresses[0], PORT, listener=sender,
        local_address=scenario.client_addresses[0],
    )
    sim.run(until=horizon)
    return sender, receivers, conn


class TestWifiLteHandover:
    def test_wifi_interface_goes_down_on_schedule(self):
        sim = Simulator(seed=1)
        scenario = build_wifi_lte_handover(sim, degrade_at=0.5, down_at=1.0)
        assert scenario.client.interface("if0").is_up
        sim.run(until=0.7)
        assert scenario.path_links[0].loss_rate > 0
        sim.run(until=1.2)
        assert not scenario.client.interface("if0").is_up

    def test_recovery_brings_wifi_back_clean(self):
        sim = Simulator(seed=1)
        scenario = build_wifi_lte_handover(sim, degrade_at=0.5, down_at=1.0, recover_at=2.0)
        sim.run(until=3.0)
        assert scenario.client.interface("if0").is_up
        assert scenario.path_links[0].loss_rate == 0.0

    def test_recover_before_down_rejected(self):
        with pytest.raises(ValueError):
            build_wifi_lte_handover(Simulator(seed=1), down_at=2.0, recover_at=1.0)
        # Also rejected when only the degradation precedes it …
        with pytest.raises(ValueError):
            build_wifi_lte_handover(Simulator(seed=1), degrade_at=1.0, down_at=None, recover_at=0.5)
        # … and for negative times, with the builder's own error rather
        # than a SimulationError from the scheduling layer.
        with pytest.raises(ValueError):
            build_wifi_lte_handover(Simulator(seed=1), degrade_at=-1.0)

    def test_transfer_survives_handover(self):
        sim = Simulator(seed=3)
        scenario = build_wifi_lte_handover(sim, degrade_at=0.2, down_at=0.5)
        sender, receivers, conn = _transfer(sim, scenario, total_bytes=400_000, horizon=20.0)
        assert sender.completion_time is not None
        # Data must have moved onto the LTE path after the WiFi loss.
        lte_flows = [f for f in conn.subflows if f.four_tuple.src == scenario.client_addresses[1]]
        assert any(f.bytes_scheduled > 0 for f in lte_flows)


class TestAsymmetricLoss:
    def test_per_path_loss_rates(self):
        scenario = build_asymmetric_loss(Simulator(seed=1), loss_percents=(7.5, 0.25))
        assert scenario.path_links[0].loss_rate == pytest.approx(0.075)
        assert scenario.path_links[1].loss_rate == pytest.approx(0.0025)

    def test_transfer_completes_despite_loss(self):
        sim = Simulator(seed=2)
        scenario = build_asymmetric_loss(sim)
        sender, receivers, _ = _transfer(sim, scenario, total_bytes=100_000, horizon=20.0)
        assert sender.completion_time is not None
        assert receivers and receivers[0].received_bytes == 100_000


class TestBufferbloatCellular:
    def test_cellular_path_queues_instead_of_dropping(self):
        sim = Simulator(seed=4)
        scenario = build_bufferbloat_cellular(sim)
        sender, _, _ = _transfer(sim, scenario, total_bytes=150_000, horizon=20.0)
        assert sender.completion_time is not None
        cell_stats = scenario.path_links[1].stats()
        assert scenario.path_links[1].loss_rate == 0.0
        assert cell_stats["dropped_loss"] == 0
        # The bloated buffer absorbs the whole burst rather than tail-dropping.
        assert cell_stats["dropped_queue"] == 0


class TestPathFailureRecovery:
    def test_blackout_window(self):
        sim = Simulator(seed=1)
        scenario = build_path_failure_recovery(sim, fail_at=1.0, recover_at=2.0)
        assert scenario.path_links[0].loss_rate == 0.0
        sim.run(until=1.5)
        assert scenario.path_links[0].loss_rate == 1.0
        sim.run(until=2.5)
        assert scenario.path_links[0].loss_rate == 0.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            build_path_failure_recovery(Simulator(seed=1), fail_at=2.0, recover_at=1.0)

    def test_transfer_straddling_blackout_completes(self):
        sim = Simulator(seed=5)
        scenario = build_path_failure_recovery(sim, fail_at=0.1, recover_at=1.1)
        sender, _, _ = _transfer(sim, scenario, total_bytes=600_000, horizon=25.0)
        assert sender.completion_time is not None
        assert sender.completion_time > 0.1


class TestAddAddrStripping:
    def test_middlebox_strips_add_addr_only(self):
        sim = Simulator(seed=6)
        scenario = build_addaddr_stripped(sim)
        assert isinstance(scenario.middlebox, OptionStrippingMiddlebox)
        sender, receivers, conn = _transfer(sim, scenario, total_bytes=60_000, horizon=15.0)
        # The transfer itself works: only the advertisement is damaged.
        assert sender.completion_time is not None
        assert scenario.middlebox.options_stripped > 0
        assert scenario.middlebox.forwarded > 0

    def test_stripping_limits_the_mesh(self):
        """With ADD_ADDR stripped the client never learns the server's
        second address, so fullmesh builds strictly fewer subflows than on
        an equivalent clean topology."""
        sim = Simulator(seed=7)
        scenario = build_addaddr_stripped(sim)
        _, _, conn = _transfer(sim, scenario, total_bytes=60_000, horizon=15.0)
        stripped_subflows = len(conn.subflows)

        from repro.netem.scenarios import build_dual_homed

        sim2 = Simulator(seed=7)
        clean = build_dual_homed(sim2)
        _, _, conn2 = _transfer(sim2, clean, total_bytes=60_000, horizon=15.0)
        assert stripped_subflows < len(conn2.subflows)
