"""Tests for the repro.faults subsystem.

Covers the plan format (generation determinism, round-trips, subsets),
each fault model's apply semantics at a link choke point, the
FaultingMiddlebox, the faulted() scenario combinator, the fuzz triage
summarizer, the ddmin shrinker, the committed counterexample fixture and
the runner's fuzz subcommand.
"""

import json
import os

import pytest

from repro.faults import (
    FAULT_MODELS,
    FAULTED_SCENARIOS,
    NAMED_PLANS,
    FaultEvent,
    FaultingMiddlebox,
    FaultInjector,
    FaultPlan,
    MutationEngine,
    cell_failure_predicate,
    counterexample_artifact,
    counterexample_json,
    faulted,
    load_counterexample,
    named_plan,
    shrink_plan,
)
from repro.mptcp.options import AddAddrOption, DssOption
from repro.net import Host, Link
from repro.net.addressing import ip
from repro.net.packet import Segment, TCPFlags
from repro.netem.scenarios import build_dual_homed
from repro.workloads import Harness, HarnessSpec, SCENARIOS

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


class SinkStack:
    def __init__(self):
        self.segments = []

    def on_segment(self, segment, iface):
        self.segments.append(segment)

    def on_local_address_up(self, iface):
        pass

    def on_local_address_down(self, iface):
        pass


def build_pair(sim, delay=0.001):
    """Two hosts on one link, raw-segment style, sink on the right."""
    left = Host(sim, "left")
    right = Host(sim, "right")
    link = Link(sim, name="wire", delay=delay)
    link.connect(
        left.add_interface("eth0", "10.0.0.1"), right.add_interface("eth0", "10.0.0.2")
    )
    sink = SinkStack()
    right.install_stack(sink)
    return left, right, link, sink


def plan_of(*events, horizon=10.0):
    return FaultPlan(seed=0, profile="test", horizon=horizon, events=tuple(events))


def send(left, payload_len=0, flags=TCPFlags.ACK, seq=0, ack=0, options=(), sport=1000):
    left.send(
        Segment(
            src=ip("10.0.0.1"), dst=ip("10.0.0.2"), sport=sport, dport=80,
            seq=seq, ack=ack, flags=flags, payload_len=payload_len, options=tuple(options),
        )
    )


class TestFaultPlan:
    def test_generation_is_deterministic(self):
        a = FaultPlan.generate(7, targets=["path0", "path1"])
        b = FaultPlan.generate(7, targets=["path0", "path1"])
        assert a.to_json() == b.to_json()
        assert len(a) >= 3

    def test_different_seed_different_plan(self):
        a = FaultPlan.generate(7, targets=["path0"])
        b = FaultPlan.generate(8, targets=["path0"])
        assert a.to_json() != b.to_json()

    def test_json_round_trip(self):
        plan = FaultPlan.generate(3, targets=["path0", "path1"])
        assert FaultPlan.from_json(plan.to_json()).to_json() == plan.to_json()

    def test_generated_events_use_known_models_and_targets(self):
        plan = FaultPlan.generate(5, targets=["a", "b"])
        plan.validate(["a", "b"])
        for event in plan.events:
            assert event.mutation in FAULT_MODELS
            assert 0 < event.time < plan.horizon

    def test_subset_keeps_order_and_provenance(self):
        plan = FaultPlan.generate(5, targets=["a"])
        sub = plan.subset([0, len(plan) - 1])
        assert len(sub) == 2
        assert sub.seed == plan.seed
        assert sub.events[0] == plan.events[0]
        with pytest.raises(IndexError):
            plan.subset([len(plan)])

    def test_validate_rejects_unknown_mutation_and_target(self):
        bad_model = plan_of(FaultEvent(1.0, "a", "no_such_model"))
        with pytest.raises(ValueError, match="unknown fault model"):
            bad_model.validate(["a"])
        bad_target = plan_of(FaultEvent(1.0, "b", "nat_rebind"))
        with pytest.raises(ValueError, match="unknown"):
            bad_target.validate(["a"])

    def test_segment_profile_excludes_link_models(self):
        plan = FaultPlan.generate(5, targets=["mbox:x"], profile="segment", max_events=7)
        assert all(event.mutation != "link_flap" for event in plan.events)

    def test_named_plans_build_and_validate(self):
        for name, entry in NAMED_PLANS.items():
            plan = named_plan(name)
            assert len(plan) >= 1
            plan.validate(["path0", "path1"])
            assert entry.base_scenario in SCENARIOS


class TestLinkFaultModels:
    def test_strip_option_applies_only_inside_window(self, sim):
        left, right, link, sink = build_pair(sim)
        plan = plan_of(
            FaultEvent(1.0, "wire", "strip_option",
                       (("duration", 1.0), ("option", "AddAddrOption")))
        )
        injector = FaultInjector(sim, {"wire": link}, plan)
        injector.install()
        option = AddAddrOption(address_id=1, address=ip("10.1.0.1"))
        sim.schedule_at(0.5, send, left, options=(option,))
        sim.schedule_at(1.5, send, left, options=(option,))
        sim.schedule_at(2.5, send, left, options=(option,))
        sim.run()
        carried = [len(segment.options) for segment in sink.segments]
        assert carried == [1, 0, 1]
        assert injector.stats()["options_stripped"] == 1

    def test_corrupt_dss_removes_mapping(self, sim):
        left, right, link, sink = build_pair(sim)
        plan = plan_of(FaultEvent(1.0, "wire", "corrupt_dss", (("duration", 1.0),)))
        FaultInjector(sim, {"wire": link}, plan).install()
        dss = DssOption(data_seq=0, data_len=100)
        sim.schedule_at(1.2, send, left, payload_len=100, options=(dss,))
        sim.run()
        assert sink.segments[0].find_option(DssOption) is None

    def test_burst_loss_drops_exactly_n(self, sim):
        left, right, link, sink = build_pair(sim)
        plan = plan_of(FaultEvent(1.0, "wire", "burst_loss", (("count", 2),)))
        injector = FaultInjector(sim, {"wire": link}, plan)
        injector.install()
        for index in range(4):
            sim.schedule_at(1.1 + index * 0.1, send, left, payload_len=10, seq=index * 10)
        sim.run()
        assert len(sink.segments) == 2
        assert injector.stats()["segments_dropped"] == 2

    def test_link_flap_blackholes_then_restores(self, sim):
        left, right, link, sink = build_pair(sim)
        plan = plan_of(FaultEvent(1.0, "wire", "link_flap", (("duration", 1.0),)))
        injector = FaultInjector(sim, {"wire": link}, plan)
        injector.install()
        sim.schedule_at(1.5, send, left, payload_len=10)
        sim.schedule_at(2.5, send, left, payload_len=10)
        sim.run()
        assert len(sink.segments) == 1
        assert link.loss_rate == 0.0
        assert injector.stats()["link_flaps"] == 1

    def test_reorder_holds_every_nth_data_segment(self, sim):
        left, right, link, sink = build_pair(sim)
        plan = plan_of(
            FaultEvent(1.0, "wire", "reorder",
                       (("delay", 0.5), ("duration", 5.0), ("every", 2)))
        )
        injector = FaultInjector(sim, {"wire": link}, plan)
        injector.install()
        for index in range(4):
            sim.schedule_at(1.1 + index * 0.01, send, left, payload_len=10, seq=index * 10)
        sim.run()
        assert injector.stats()["segments_reordered"] == 2
        assert len(sink.segments) == 4
        # The held segments (2nd and 4th) arrive after the others.
        assert [segment.seq for segment in sink.segments] == [0, 20, 10, 30]

    def test_split_divides_payload_and_dss_mapping(self, sim):
        left, right, link, sink = build_pair(sim)
        plan = plan_of(
            FaultEvent(1.0, "wire", "split_segment",
                       (("duration", 5.0), ("min_payload", 100)))
        )
        injector = FaultInjector(sim, {"wire": link}, plan)
        injector.install()
        dss = DssOption(data_seq=500, data_len=200, data_ack=7)
        sim.schedule_at(
            1.5, send, left, payload_len=200, seq=1000,
            flags=TCPFlags.ACK | TCPFlags.FIN, options=(dss,),
        )
        sim.run()
        assert injector.stats()["segments_split"] == 1
        head, tail = sink.segments
        assert (head.seq, head.payload_len) == (1000, 100)
        assert (tail.seq, tail.payload_len) == (1100, 100)
        assert not head.is_fin and tail.is_fin
        head_dss, tail_dss = head.find_option(DssOption), tail.find_option(DssOption)
        assert (head_dss.data_seq, head_dss.data_len) == (500, 100)
        assert (tail_dss.data_seq, tail_dss.data_len) == (600, 100)
        assert tail_dss.data_ack == 7

    def test_coalesce_merges_contiguous_data_segments(self, sim):
        left, right, link, sink = build_pair(sim)
        plan = plan_of(
            FaultEvent(1.0, "wire", "coalesce_segments",
                       (("duration", 5.0), ("hold", 0.5)))
        )
        injector = FaultInjector(sim, {"wire": link}, plan)
        injector.install()
        first = DssOption(data_seq=0, data_len=100)
        second = DssOption(data_seq=100, data_len=50, data_ack=9)
        sim.schedule_at(1.1, send, left, payload_len=100, seq=0, options=(first,))
        sim.schedule_at(1.2, send, left, payload_len=50, seq=100, options=(second,))
        sim.run()
        assert injector.stats()["segments_coalesced"] == 1
        (merged,) = sink.segments
        assert merged.payload_len == 150
        dss = merged.find_option(DssOption)
        assert (dss.data_seq, dss.data_len, dss.data_ack) == (0, 150, 9)

    def test_coalesce_flushes_cross_direction_hold_to_its_own_destination(self, sim):
        """A held client->server segment must not be re-admitted in the
        server->client direction when an opposite-direction segment breaks
        the hold — each side receives exactly the other side's data."""
        left, right, link, sink_right = build_pair(sim)
        sink_left = SinkStack()
        left.install_stack(sink_left)
        plan = plan_of(
            FaultEvent(1.0, "wire", "coalesce_segments",
                       (("duration", 5.0), ("hold", 0.5)))
        )
        FaultInjector(sim, {"wire": link}, plan).install()
        sim.schedule_at(1.1, send, left, payload_len=100, seq=0,
                        options=(DssOption(data_seq=0, data_len=100),))
        reply = Segment(src=ip("10.0.0.2"), dst=ip("10.0.0.1"), sport=80, dport=1000,
                        seq=0, payload_len=60, flags=TCPFlags.ACK,
                        options=(DssOption(data_seq=0, data_len=60),))
        sim.schedule_at(1.2, right.send, reply)
        sim.run()
        assert [segment.payload_len for segment in sink_right.segments] == [100]
        assert [segment.payload_len for segment in sink_left.segments] == [60]

    def test_overlapping_link_flaps_restore_the_original_loss_rate(self, sim):
        left, right, link, sink = build_pair(sim)
        link.set_loss_rate(0.25)
        plan = plan_of(
            FaultEvent(1.0, "wire", "link_flap", (("duration", 3.0),)),
            FaultEvent(2.0, "wire", "link_flap", (("duration", 4.0),)),
        )
        injector = FaultInjector(sim, {"wire": link}, plan)
        injector.install()
        sim.run(until=3.0)
        assert link.loss_rate == 1.0  # first window still open at t=3
        sim.run(until=5.0)
        assert link.loss_rate == 1.0  # first restore must not end the overlap
        sim.run()
        assert link.loss_rate == 0.25  # back to the pre-flap rate, not 1.0
        assert injector.link_flaps == 2

    def test_coalesce_releases_held_segment_on_timeout(self, sim):
        left, right, link, sink = build_pair(sim)
        plan = plan_of(
            FaultEvent(1.0, "wire", "coalesce_segments",
                       (("duration", 5.0), ("hold", 0.3)))
        )
        FaultInjector(sim, {"wire": link}, plan).install()
        sim.schedule_at(1.1, send, left, payload_len=100, seq=0,
                        options=(DssOption(data_seq=0, data_len=100),))
        sim.run()
        assert len(sink.segments) == 1
        assert sim.now >= 1.4  # released by the hold timer, not immediately

    def test_coalesce_window_closing_over_a_held_segment_flushes_it_once(self, sim):
        """The window closes at 1.5 s while a segment sits in the hold slot
        until 3.1 s: closing flushes it then and there, exactly once, and
        its hold timer, cancelled by the flush, never emits a second copy."""
        left, right, link, sink = build_pair(sim)
        plan = plan_of(
            FaultEvent(1.0, "wire", "coalesce_segments",
                       (("duration", 0.5), ("hold", 2.0)))
        )
        injector = FaultInjector(sim, {"wire": link}, plan)
        injector.install()
        sim.schedule_at(1.1, send, left, payload_len=100, seq=0,
                        options=(DssOption(data_seq=0, data_len=100),))
        sim.run(until=1.49)
        assert sink.segments == []  # held, the window still open
        sim.run(until=1.6)
        (flushed,) = sink.segments
        assert (flushed.seq, flushed.payload_len) == (0, 100)
        assert flushed.find_option(DssOption).data_len == 100
        sim.run()
        assert len(sink.segments) == 1  # nothing more once the hold expires
        assert sim.now < 3.1  # the hold timer's event never ran
        assert sim.pending_events == 0
        assert injector.stats()["segments_coalesced"] == 0

    def test_nat_rebind_blackholes_established_flows_until_new_syn(self, sim):
        left, right, link, sink = build_pair(sim)
        plan = plan_of(FaultEvent(2.0, "wire", "nat_rebind"))
        injector = FaultInjector(sim, {"wire": link}, plan)
        injector.install()
        sim.schedule_at(0.5, send, left, flags=TCPFlags.SYN)
        sim.schedule_at(1.0, send, left, payload_len=10)
        # After the rebind the old flow is dropped; a new SYN re-admits it.
        sim.schedule_at(2.5, send, left, payload_len=10)
        sim.schedule_at(3.0, send, left, flags=TCPFlags.SYN)
        sim.schedule_at(3.5, send, left, payload_len=10)
        sim.run()
        assert len(sink.segments) == 4
        stats = injector.stats()
        assert stats["segments_dropped"] == 1
        assert stats["flows_rebound"] == 1

    def test_rewrite_seq_shifts_flows_set_up_after_activation(self, sim):
        left, right, link, sink = build_pair(sim)
        plan = plan_of(FaultEvent(1.0, "wire", "rewrite_seq", (("offset", 5000),)))
        FaultInjector(sim, {"wire": link}, plan).install()
        # Flow A handshakes before the rewrite activates: untouched.
        sim.schedule_at(0.5, send, left, flags=TCPFlags.SYN, seq=100, sport=1000)
        sim.schedule_at(1.5, send, left, payload_len=10, seq=101, sport=1000)
        # Flow B's SYN crosses after activation: its ISN is shifted, and the
        # shift sticks for the rest of the flow.
        sim.schedule_at(2.0, send, left, flags=TCPFlags.SYN, seq=300, sport=2000)
        sim.schedule_at(2.5, send, left, payload_len=10, seq=301, ack=40, sport=2000)
        sim.run()
        seqs = {(segment.sport, segment.seq) for segment in sink.segments}
        assert (1000, 101) in seqs  # pre-activation flow unshifted
        assert (2000, 5300) in seqs and (2000, 5301) in seqs
        # Acks travelling the reverse direction shift back.
        reply = Segment(src=ip("10.0.0.2"), dst=ip("10.0.0.1"), sport=80, dport=2000,
                        seq=40, ack=5311, flags=TCPFlags.ACK)
        sink_left = SinkStack()
        left.install_stack(sink_left)
        sim.schedule_at(3.0, right.send, reply)
        sim.run()
        assert sink_left.segments[-1].ack == 311

    def test_rewrite_seq_is_transparent_to_a_full_transfer(self):
        """A second subflow set up under ISN rewriting must work end to end."""
        plan = plan_of(FaultEvent(0.0, "path1", "rewrite_seq", (("offset", 9999),)))
        spec = dict(workload="bulk_transfer", controller="fullmesh",
                    seed=5, horizon=15.0, params={"transfer_bytes": 80_000})
        clean = Harness().run(HarnessSpec(scenario="dual_homed", **spec))
        faulty = Harness().run(
            HarnessSpec(scenario=faulted(build_dual_homed, "dual_homed", plan=plan), **spec)
        )
        assert faulty.metrics["bytes_delivered"] == clean.metrics["bytes_delivered"]
        assert faulty.metrics["fault_seq_rewritten"] > 0
        assert faulty.metrics["subflows_used"] >= 2
        assert faulty.metrics["connection_established"] == 1


class TestFaultingMiddlebox:
    def test_forwards_and_mutates(self, sim):
        client = Host(sim, "client")
        server = Host(sim, "server")
        box = FaultingMiddlebox(sim, "mbox")
        inside, outside = box.attach("10.0.0.254", "10.0.1.254")
        Link(sim, name="l0", delay=0.001).connect(
            client.add_interface("if0", "10.0.0.1"), inside
        )
        Link(sim, name="l1", delay=0.001).connect(
            outside, server.add_interface("if0", "10.0.1.2")
        )
        client.add_route("10.0.1.2", "if0")
        sink = SinkStack()
        server.install_stack(sink)

        plan = plan_of(
            FaultEvent(1.0, box.target_name, "strip_option",
                       (("duration", 2.0), ("option", "AddAddrOption")))
        )
        injector = FaultInjector(sim, {box.target_name: box.engine}, plan)
        injector.install()
        option = AddAddrOption(address_id=1, address=ip("10.9.0.1"))
        segment = Segment(src=ip("10.0.0.1"), dst=ip("10.0.1.2"), sport=1, dport=2,
                          options=(option,))
        sim.schedule_at(1.5, client.send, segment)
        sim.run()
        assert len(sink.segments) == 1
        assert sink.segments[0].options == ()
        assert box.forwarded == 1
        assert injector.stats()["options_stripped"] == 1

    def test_link_flap_aimed_at_an_engine_is_rejected(self, sim):
        """A flap needs a link: a plan aiming one at a mutation engine is
        refused up front instead of being counted and logged as fired."""
        engine = MutationEngine(sim, "mbox:m", lambda segment, iface: None)
        plan = plan_of(FaultEvent(1.0, "mbox:m", "link_flap", (("duration", 1.0),)))
        with pytest.raises(ValueError, match=r"t=1 mbox:m: link_flap"):
            FaultInjector(sim, {"mbox:m": engine}, plan)


class TestFaultedScenarios:
    def test_registry_has_faulted_variants_with_clean_twins(self):
        for name, twin in FAULTED_SCENARIOS.items():
            assert name in SCENARIOS
            assert twin in SCENARIOS

    def test_combinator_delegates_and_derives_plan_from_sim_seed(self, make_sim):
        builder = SCENARIOS["faulted_dual_homed"]
        a = builder(make_sim(3))
        b = builder(make_sim(3))
        c = builder(make_sim(4))
        assert a.fault_plan.to_json() == b.fault_plan.to_json()
        assert a.fault_plan.to_json() != c.fault_plan.to_json()
        assert a.fault_plan.targets and set(a.fault_plan.targets) <= {"path0", "path1"}

    def test_faulted_path_targets_only_the_middlebox(self, make_sim):
        scenario = SCENARIOS["faulted_path"](make_sim(3))
        assert scenario.fault_plan.targets == ["mbox:mbox"]
        assert all(event.mutation != "link_flap" for event in scenario.fault_plan.events)

    def test_fault_probe_reports_only_on_faulted_scenarios(self):
        spec = dict(workload="bulk_transfer", controller="fullmesh", seed=2,
                    horizon=12.0, params={"transfer_bytes": 40_000})
        clean = Harness().run(HarnessSpec(scenario="dual_homed", **spec))
        faulty = Harness().run(HarnessSpec(scenario="faulted_dual_homed", **spec))
        assert not any(key.startswith("fault_") for key in clean.metrics)
        assert "connection_established" not in clean.metrics
        assert faulty.metrics["fault_events_scheduled"] == len(faulty.scenario.fault_plan)
        assert faulty.metrics["connection_established"] == 1


class TestTriage:
    def run_fuzz(self, **kwargs):
        import dataclasses

        from repro.experiments.grids import named_grid
        from repro.sweep import run_campaign

        return run_campaign(dataclasses.replace(named_grid("fuzz"), seeds=1), **kwargs)

    def test_triage_is_deterministic_and_covers_every_faulted_cell(self):
        from repro.analysis.faults import triage_campaign, triage_json

        first = triage_campaign(self.run_fuzz())
        second = triage_campaign(self.run_fuzz())
        assert triage_json(first) == triage_json(second)
        faulted_cells = 2 * len(FAULTED_SCENARIOS)  # 2 workloads x 1 seed
        assert first["faulted_cells"] == faulted_cells
        for row in first["rows"]:
            assert row["twin_key"] is not None
            assert row["verdict"] in {"pass", "fallback", "degraded", "failed"}
        # The MP_CAPABLE-interference scenarios must survive as fallbacks,
        # not die: the once trivially-dead corner is a degradation axis now.
        downgrade_rows = [
            row for row in first["rows"]
            if "mpcapable_stripped" in row["key"] or "faulted_downgrade" in row["key"]
        ]
        assert downgrade_rows
        for row in downgrade_rows:
            assert row["verdict"] == "fallback", row
            assert row["fallback_connections"] >= 1

    def test_evaluate_cell_verdicts(self):
        from repro.analysis.faults import evaluate_cell

        clean = {"goodput_mbps": 4.0}
        assert evaluate_cell({"goodput_mbps": 3.9}, clean)["verdict"] == "pass"
        assert evaluate_cell({"goodput_mbps": 1.0}, clean)["verdict"] == "degraded"
        assert evaluate_cell({"goodput_mbps": 0.01}, clean)["verdict"] == "failed"
        dead = evaluate_cell({"goodput_mbps": 3.9, "connection_established": 0}, clean)
        assert dead["verdict"] == "failed"
        assert evaluate_cell({"goodput_mbps": 1.0}, None)["verdict"] == "no_twin"
        assert evaluate_cell({"goodput_mbps": 1.0}, {})["verdict"] == "no_baseline"


class TestShrink:
    def test_ddmin_finds_exact_minimal_subset(self):
        plan = FaultPlan.generate(11, targets=["path0"], min_events=6, max_events=6)
        culprits = {plan.events[1], plan.events[4]}

        def failing(candidate):
            return culprits <= set(candidate.events)

        result = shrink_plan(plan, failing)
        assert set(result.minimal.events) == culprits
        assert result.evaluations <= 40

    def test_shrink_rejects_passing_plan(self):
        plan = FaultPlan.generate(11, targets=["path0"])
        with pytest.raises(ValueError, match="does not fail"):
            shrink_plan(plan, lambda candidate: False)

    def test_known_bad_plan_shrinks_to_committed_counterexample(self):
        """The acceptance-criteria fixture: reproducible minimisation."""
        artifact = load_counterexample(
            os.path.join(FIXTURES, "fuzz_counterexample_dual_homed.json")
        )
        cell = artifact["cell"]
        failing, _clean = cell_failure_predicate(
            workload=cell["workload"],
            base_scenario=cell["base_scenario"],
            seed=cell["seed"],
            horizon=cell["horizon"],
            controller=cell["controller"],
            scheduler=cell["scheduler"],
        )
        result = shrink_plan(named_plan("known_bad_dual_homed", cell["horizon"]), failing)
        regenerated = counterexample_artifact(
            result,
            workload=cell["workload"],
            base_scenario=cell["base_scenario"],
            seed=cell["seed"],
            horizon=cell["horizon"],
            controller=cell["controller"],
            scheduler=cell["scheduler"],
            plan_name="known_bad_dual_homed",
        )
        with open(os.path.join(FIXTURES, "fuzz_counterexample_dual_homed.json")) as handle:
            committed = handle.read()
        assert counterexample_json(regenerated) == committed
        # 1-minimality: the surviving event alone fails, dropping it passes.
        minimal = FaultPlan.from_payload(artifact["minimal_plan"])
        assert len(minimal) == 1
        assert failing(minimal)
        assert not failing(minimal.subset([]))  # empty plan passes

    def test_seed_derived_corrupt_dss_plan_falls_back_and_shrinks(self):
        """Fault seed 15 on the passive 2 MB dual-homed cell produces long
        corrupt_dss windows on the only used path.  Before the fallback
        path existed that plan was fatal; now the single-subflow connection
        degrades to plain TCP instead, so the plan no longer reaches the
        ``failed`` verdict — and ddmin against the ``fallback`` verdict
        strips the bystander events down to one corrupt_dss window."""
        cell = dict(
            workload="bulk_transfer", base_scenario="dual_homed", seed=1,
            horizon=15.0, params={"transfer_bytes": 2_000_000},
        )
        plan = FaultPlan.generate(15, targets=["path0", "path1"], horizon=15.0)
        assert len(plan) == 4
        failing, clean = cell_failure_predicate(**cell)
        assert clean["goodput_mbps"] > 0
        assert not failing(plan)  # survived: downgraded, not dead
        falls_back, _ = cell_failure_predicate(**cell, target_verdict="fallback")
        assert falls_back(plan)
        first = shrink_plan(plan, falls_back)
        second = shrink_plan(plan, falls_back)
        assert first.minimal.to_json() == second.minimal.to_json()  # reproducible
        assert len(first.minimal) == 1
        assert first.minimal.events[0].mutation == "corrupt_dss"
        assert first.minimal.events[0].target == "path0"

    def test_known_fallback_plan_shrinks_to_committed_counterexample(self):
        """The fallback twin of the known-bad fixture: ddmin against the
        ``fallback`` verdict reduces the noisy downgrade plan to exactly
        the MP_CAPABLE strip, byte-identical to the committed artifact."""
        artifact = load_counterexample(
            os.path.join(FIXTURES, "fallback_counterexample_dual_homed.json")
        )
        cell = artifact["cell"]
        assert artifact["target_verdict"] == "fallback"
        falls_back, _clean = cell_failure_predicate(
            workload=cell["workload"],
            base_scenario=cell["base_scenario"],
            seed=cell["seed"],
            horizon=cell["horizon"],
            controller=cell["controller"],
            scheduler=cell["scheduler"],
            target_verdict="fallback",
        )
        result = shrink_plan(named_plan("known_fallback_dual_homed", cell["horizon"]), falls_back)
        regenerated = counterexample_artifact(
            result,
            workload=cell["workload"],
            base_scenario=cell["base_scenario"],
            seed=cell["seed"],
            horizon=cell["horizon"],
            controller=cell["controller"],
            scheduler=cell["scheduler"],
            plan_name="known_fallback_dual_homed",
            target_verdict="fallback",
        )
        with open(os.path.join(FIXTURES, "fallback_counterexample_dual_homed.json")) as handle:
            committed = handle.read()
        assert counterexample_json(regenerated) == committed
        minimal = FaultPlan.from_payload(artifact["minimal_plan"])
        assert len(minimal) == 1
        assert minimal.events[0].mutation == "strip_option"
        assert minimal.events[0].param_dict["option"] == "MpCapableOption"
        assert falls_back(minimal)
        assert not falls_back(minimal.subset([]))  # the noise alone is benign

    def test_predicate_flags_the_fatal_plan_not_the_noise(self):
        failing, clean = cell_failure_predicate(
            workload="bulk_transfer", base_scenario="dual_homed", seed=1, horizon=15.0
        )
        assert clean["goodput_mbps"] > 0
        bad = named_plan("known_bad_dual_homed")
        assert failing(bad)
        noise = bad.subset([0, 1, 2, 4])  # everything but the flap
        assert not failing(noise)


class TestRunnerFuzzCli:
    def test_fuzz_campaign_writes_byte_stable_triage(self, tmp_path, capsys):
        from repro.experiments import runner

        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert runner.main(["fuzz", "--seeds", "1", "--json", str(first)]) == 0
        assert runner.main(["fuzz", "--seeds", "1", "--json", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        out = capsys.readouterr().out
        assert "fuzz triage" in out

    def test_fuzz_shrink_cli_round_trips_the_fixture(self, tmp_path, capsys):
        from repro.experiments import runner

        out_path = tmp_path / "cex.json"
        code = runner.main(
            ["fuzz", "--shrink", "--plan", "known_bad_dual_homed", "--out", str(out_path)]
        )
        assert code == 0
        regenerated = json.loads(out_path.read_text())
        with open(os.path.join(FIXTURES, "fuzz_counterexample_dual_homed.json")) as handle:
            committed = json.load(handle)
        assert regenerated == committed
        assert "shrunk 5 events to 1" in capsys.readouterr().out

    def test_fuzz_shrink_plan_file_honours_cell_params(self, tmp_path, capsys):
        """A plan saved from a campaign cell round-trips through --plan FILE
        --params: the same cell parameters reproduce the downgrade (the
        corrupt_dss windows only bite a transfer long enough to straddle
        them), and without them the plan rightly does not trigger it."""
        from repro.experiments import runner

        plan_path = tmp_path / "plan.json"
        FaultPlan.generate(15, targets=["path0", "path1"], horizon=15.0).save(str(plan_path))
        out_path = tmp_path / "cex.json"
        code = runner.main(
            ["fuzz", "--shrink", "--plan", str(plan_path),
             "--base-scenario", "dual_homed", "--target-verdict", "fallback",
             "--params", '{"transfer_bytes": 2000000}', "--out", str(out_path)]
        )
        assert code == 0
        artifact = json.loads(out_path.read_text())
        assert artifact["minimal_events"] == 1
        assert artifact["cell"]["params"] == {"transfer_bytes": 2000000}
        assert artifact["target_verdict"] == "fallback"
        capsys.readouterr()
        # Judged against the default cell (no params: the transfer finishes
        # before the first window opens) the plan passes.
        assert runner.main(
            ["fuzz", "--shrink", "--plan", str(plan_path),
             "--base-scenario", "dual_homed", "--target-verdict", "fallback"]
        ) == 1
        assert "nothing to shrink" in capsys.readouterr().out

    def test_fuzz_shrink_defaults_to_the_plan_files_own_horizon(self, tmp_path, capsys):
        from repro.experiments import runner

        plan_path = tmp_path / "plan30.json"
        named_plan("known_bad_dual_homed", horizon=30.0).save(str(plan_path))
        out_path = tmp_path / "cex30.json"
        code = runner.main(
            ["fuzz", "--shrink", "--plan", str(plan_path),
             "--base-scenario", "dual_homed", "--out", str(out_path)]
        )
        assert code == 0
        artifact = json.loads(out_path.read_text())
        assert artifact["cell"]["horizon"] == 30.0
        assert artifact["minimal_plan"]["horizon"] == 30.0
        assert artifact["minimal_events"] == 1
        capsys.readouterr()

    def test_fuzz_shrink_rejects_unknown_plan(self):
        from repro.experiments import runner

        with pytest.raises(SystemExit, match="neither a named plan"):
            runner.main(["fuzz", "--shrink", "--plan", "nope_not_a_plan"])

    def test_list_mentions_fault_registries(self, capsys):
        from repro.experiments import runner

        assert runner.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fault models:" in out
        assert "middleboxes:" in out
        assert "fault plans (named):" in out
        assert "known_bad_dual_homed" in out
        assert "fuzz" in out
