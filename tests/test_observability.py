"""Tests for the observability layer (``repro.obs``) and its wiring.

Covers the event log substrate (filtering, bounding, coverage), the
byte-stable exports, the opt-in ``events`` probe (including the
acceptance-criterion strip-before-fallback ordering on a faulted
downgrade cell and the silence guarantee when tracing is off), stack
counters, campaign telemetry, the probe-timing surface across every
registered probe, and the ``PacketTracer.records`` aliasing regression.
"""

import json

import pytest

from repro.experiments.runner import build_parser
from repro.obs import (
    CATEGORIES,
    DEFAULT_LIMIT,
    CellTelemetry,
    CounterRegistry,
    EventLog,
    chrome_trace,
    events_jsonl,
    format_telemetry_report,
    stack_counters,
    summarize_telemetry,
)
from repro.sweep import CampaignGrid, run_campaign
from repro.workloads import HarnessSpec, run_workload
from repro.workloads.probes import DEFAULT_PROBES, PROBES

EVENT_METRICS = {"events_recorded", "events_dropped", "event_counts", "event_counters"}

#: The counter catalogue ``MptcpStack.counters()`` publishes.
STACK_COUNTER_KEYS = (
    "connections_accepted",
    "connections_fallen_back",
    "connections_initiated",
    "resets_sent",
    "retransmissions",
    "segments_delivered",
    "segments_received",
    "segments_sent",
    "segments_unmatched",
)


def downgrade_spec(**params) -> HarnessSpec:
    """The acceptance cell: MP_CAPABLE stripped at t=0, downgrade follows."""
    merged = {"transfer_bytes": 60_000, **params}
    return HarnessSpec(
        workload="bulk_transfer",
        scenario="faulted_downgrade",
        controller="fullmesh",
        scheduler="lowest_rtt",
        seed=1,
        horizon=15.0,
        params=merged,
    )


@pytest.fixture(scope="module")
def traced_run():
    return run_workload(downgrade_spec(event_log=True))


@pytest.fixture(scope="module")
def traced_rerun():
    return run_workload(downgrade_spec(event_log=True))


@pytest.fixture(scope="module")
def untraced_run():
    return run_workload(downgrade_spec())


# ----------------------------------------------------------------------
# EventLog substrate
# ----------------------------------------------------------------------
class TestEventLog:
    def test_records_in_emit_order_with_monotonic_seq(self):
        log = EventLog()
        log.emit(0.5, "timer", "fire", "rto")
        log.emit(0.5, "fault", "strip_option", "path0", {"option": "MpCapableOption"})
        log.emit(1.0, "timer", "fire", "rto")
        assert [event.seq for event in log.events] == [0, 1, 2]
        assert [event.name for event in log.events] == ["fire", "strip_option", "fire"]
        assert log.events[1].detail == {"option": "MpCapableOption"}

    def test_category_filtering_and_channels(self):
        log = EventLog(categories=["fault", "timer"])
        assert log.categories == ("fault", "timer")
        assert log.enabled("fault") and not log.enabled("scheduler")
        assert log.channel("timer") is log
        assert log.channel("scheduler") is None

    def test_all_categories_enabled_by_default(self):
        log = EventLog()
        assert log.categories == CATEGORIES
        assert all(log.channel(cat) is log for cat in CATEGORIES)

    def test_unknown_category_is_rejected(self):
        with pytest.raises(ValueError, match="unknown event categories"):
            EventLog(categories=["timer", "bogus"])

    def test_nonpositive_limit_is_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            EventLog(limit=0)

    def test_bounding_counts_drops_instead_of_growing(self):
        log = EventLog(limit=3)
        for i in range(5):
            log.emit(float(i), "timer", "fire", "t")
        assert len(log) == 3
        assert log.dropped == 2
        assert [event.seq for event in log.events] == [0, 1, 2]
        assert log.limit == 3

    def test_default_limit_is_documented_constant(self):
        assert EventLog().limit == DEFAULT_LIMIT

    def test_counts_by_category_is_sorted_and_zero_free(self):
        log = EventLog()
        log.emit(0.0, "timer", "fire", "t")
        log.emit(0.0, "fault", "strip_option", "p")
        log.emit(0.1, "timer", "fire", "t")
        counts = log.counts_by_category()
        assert counts == {"fault": 1, "timer": 2}
        assert list(counts) == ["fault", "timer"]

    def test_coverage_signature_is_sorted_distinct_pairs(self):
        log = EventLog()
        log.emit(0.0, "timer", "fire", "a")
        log.emit(0.1, "timer", "fire", "b")
        log.emit(0.2, "fault", "drop_segment", "p")
        assert log.coverage_signature() == (
            ("fault", "drop_segment"),
            ("timer", "fire"),
        )

    def test_events_property_is_a_snapshot(self):
        log = EventLog()
        log.emit(0.0, "timer", "fire", "t")
        snapshot = log.events
        log.emit(0.1, "timer", "fire", "t")
        assert len(snapshot) == 1
        assert len(log.events) == 2


class TestCounterRegistry:
    def test_record_merge_adds_per_scope(self):
        registry = CounterRegistry()
        registry.record("client", {"segments_sent": 3, "retransmissions": 1})
        registry.record("client", {"segments_sent": 2})
        registry.record("server", {"segments_sent": 5})
        assert registry.scope("client") == {"segments_sent": 5, "retransmissions": 1}
        assert registry.scope("unknown") == {}

    def test_snapshot_is_fully_sorted(self):
        registry = CounterRegistry()
        registry.record("z", {"b": 1, "a": 2})
        registry.record("a", {"x": 1})
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "z"]
        assert list(snapshot["z"]) == ["a", "b"]

    def test_scope_returns_a_copy(self):
        registry = CounterRegistry()
        registry.record("client", {"segments_sent": 1})
        registry.scope("client")["segments_sent"] = 99
        assert registry.scope("client") == {"segments_sent": 1}


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
class TestExports:
    def small_log(self) -> EventLog:
        log = EventLog(limit=2)
        log.emit(0.0, "fault", "strip_option", "path0", {"option": "MpCapableOption"})
        log.emit(0.25, "fallback", "fallback", "client/conn-0000002a", {"reason": "x"})
        log.emit(0.5, "timer", "fire", "t")  # dropped: past the limit
        return log

    def test_jsonl_schema_and_summary_line(self):
        lines = events_jsonl(self.small_log()).splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["category"] == "fault" and first["seq"] == 0
        assert first["detail"] == {"option": "MpCapableOption"}
        summary = json.loads(lines[-1])["summary"]
        assert summary["recorded"] == 2
        assert summary["dropped"] == 1
        assert summary["counts"] == {"fallback": 1, "fault": 1}

    def test_jsonl_ends_with_newline(self):
        assert events_jsonl(self.small_log()).endswith("\n")

    def test_chrome_trace_is_valid_and_names_subject_rows(self):
        payload = json.loads(chrome_trace(self.small_log()))
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        names = {
            entry["args"]["name"]
            for entry in events
            if entry["ph"] == "M" and entry["name"] == "thread_name"
        }
        assert names == {"path0", "client/conn-0000002a"}
        instants = [entry for entry in events if entry["ph"] == "i"]
        assert [entry["name"] for entry in instants] == [
            "fault:strip_option",
            "fallback:fallback",
        ]
        assert instants[1]["ts"] == pytest.approx(0.25 * 1e6)

    def test_exports_are_byte_stable_across_runs(self, traced_run, traced_rerun):
        log_a = traced_run.probe("events").log
        log_b = traced_rerun.probe("events").log
        assert events_jsonl(log_a) == events_jsonl(log_b)
        assert chrome_trace(log_a) == chrome_trace(log_b)


# ----------------------------------------------------------------------
# The instrumented faulted-downgrade cell (acceptance criterion)
# ----------------------------------------------------------------------
class TestFaultedDowngradeTrace:
    def test_strip_is_recorded_before_fallback(self, traced_run):
        events = traced_run.probe("events").log.events
        names = [(event.category, event.name) for event in events]
        strip = names.index(("fault", "strip_option"))
        fallback = next(i for i, pair in enumerate(names) if pair[0] == "fallback")
        assert strip < fallback
        assert events[fallback].detail["reason"] == "mp_capable_stripped"

    def test_trace_covers_the_connection_lifecycle(self, traced_run):
        signature = traced_run.probe("events").log.coverage_signature()
        assert ("connection", "created") in signature
        assert ("connection", "established") in signature
        assert ("scheduler", "select") in signature
        assert ("subflow", "created") in signature

    def test_events_probe_metrics(self, traced_run):
        metrics = traced_run.metrics
        assert metrics["events_recorded"] > 0
        assert metrics["events_dropped"] == 0
        assert metrics["event_counts"]["fault"] == 1
        counters = metrics["event_counters"]
        assert set(counters) >= {"client", "server", "faults"}
        assert counters["client"]["connections_fallen_back"] == 1

    def test_category_filter_param_limits_the_log(self):
        run = run_workload(
            downgrade_spec(event_log=True, event_log_categories="fault,fallback")
        )
        log = run.probe("events").log
        assert set(log.counts_by_category()) <= {"fault", "fallback"}
        assert len(log) >= 2

    def test_limit_param_bounds_the_log(self):
        run = run_workload(downgrade_spec(event_log=True, event_log_limit=5))
        log = run.probe("events").log
        assert len(log) == 5
        assert log.dropped > 0
        assert run.metrics["events_dropped"] == log.dropped


class TestTracingIsZeroCostWhenOff:
    def test_untraced_run_attaches_no_log(self, untraced_run):
        assert untraced_run.sim.event_log is None
        assert untraced_run.probe("events").log is None
        assert not EVENT_METRICS & set(untraced_run.metrics)

    def test_enabling_tracing_does_not_perturb_other_metrics(
        self, traced_run, untraced_run
    ):
        """The no-observer-effect contract: every non-event metric of the
        traced run — including the packet digest — matches the untraced
        run byte for byte."""
        traced = {k: v for k, v in traced_run.metrics.items() if k not in EVENT_METRICS}
        assert traced == untraced_run.metrics


# ----------------------------------------------------------------------
# Stack counters
# ----------------------------------------------------------------------
class TestStackCounters:
    def test_counter_catalogue_and_sanity(self, traced_run):
        counters = traced_run.client.stack.counters()
        assert tuple(counters) == STACK_COUNTER_KEYS
        assert all(isinstance(v, int) and v >= 0 for v in counters.values())
        assert counters["connections_initiated"] == 1
        assert counters["segments_sent"] > 0

    def test_retired_connections_keep_their_socket_totals(self, traced_run):
        """The primary connection closed during the run; its per-socket
        segment totals must survive in the stack counters."""
        conn = traced_run.connection
        assert conn.closed
        counters = traced_run.client.stack.counters()
        sent = sum(flow.socket.segments_sent for flow in conn.subflows)
        assert counters["segments_sent"] >= sent > 0

    def test_counters_are_deterministic(self, traced_run, traced_rerun):
        assert (
            traced_run.client.stack.counters()
            == traced_rerun.client.stack.counters()
        )

    def test_stack_counters_helper_matches_method(self, traced_run):
        stack = traced_run.client.stack
        assert stack_counters(stack) == dict(stack.counters())


# ----------------------------------------------------------------------
# PacketTracer.records aliasing regression
# ----------------------------------------------------------------------
class TestPacketTracerRecords:
    def test_records_returns_a_defensive_copy(self, untraced_run):
        tracer = untraced_run.probe("trace").tracer
        records = tracer.records
        assert records, "expected captured packets on the downgrade cell"
        before = len(records)
        records.clear()
        records.append(None)
        assert len(tracer.records) == before
        assert tracer.records is not tracer.records


# ----------------------------------------------------------------------
# Probe timings / overhead measurement across every registered probe
# ----------------------------------------------------------------------
class TestProbeTimings:
    def test_default_probe_set_covers_the_registry(self):
        assert set(DEFAULT_PROBES) == set(PROBES)

    def test_timings_cover_every_registered_probe(self):
        run = run_workload(
            HarnessSpec(
                horizon=10.0,
                params={"transfer_bytes": 20_000},
                measure_probe_overhead=True,
            )
        )
        assert set(run.probe_timings) == set(PROBES)
        assert all(t >= 0.0 for t in run.probe_timings.values())
        assert run.metrics["probe_overhead_s"] == dict(run.probe_timings)

    def test_timings_cover_multi_connection_cells(self):
        run = run_workload(
            HarnessSpec(
                horizon=10.0,
                connections=3,
                params={"transfer_bytes": 9_000, "connection_stagger": 0.5},
                measure_probe_overhead=True,
            )
        )
        assert set(run.probe_timings) == set(PROBES)
        assert run.metrics["agg_connections"] == 3
        assert "probe_overhead_s" in run.metrics

    def test_overhead_metric_is_opt_in_but_timings_always_exist(self):
        run = run_workload(HarnessSpec(horizon=10.0, params={"transfer_bytes": 20_000}))
        assert "probe_overhead_s" not in run.metrics
        assert set(run.probe_timings) == set(PROBES)


# ----------------------------------------------------------------------
# Campaign telemetry
# ----------------------------------------------------------------------
def telemetry_grid() -> CampaignGrid:
    return CampaignGrid(
        name="obs-telemetry",
        campaign_seed=7,
        experiments=["bulk_transfer"],
        scenarios=["dual_homed"],
        schedulers=["lowest_rtt"],
        controllers=["passive"],
        seeds=2,
        params={"transfer_bytes": 20_000, "horizon": 10.0},
    )


class TestCampaignTelemetry:
    def test_fresh_and_cached_cells_are_distinguished(self, tmp_path):
        grid = telemetry_grid()
        fresh = run_campaign(grid, store_dir=str(tmp_path))
        for cell in fresh.cells:
            assert isinstance(cell.telemetry, CellTelemetry)
            assert not cell.telemetry.cached
            assert cell.telemetry.wall_time_s > 0.0
            assert cell.telemetry.sim_events > 0
            assert cell.telemetry.events_per_s > 0.0
            assert cell.telemetry.key == cell.spec.key
        cached = run_campaign(grid, store_dir=str(tmp_path))
        for cell in cached.cells:
            assert cell.telemetry.cached
            assert cell.telemetry.wall_time_s == 0.0
            assert cell.telemetry.sim_events > 0
        assert fresh.to_canonical_json() == cached.to_canonical_json()

    def test_telemetry_stays_out_of_the_canonical_surface(self):
        result = run_campaign(telemetry_grid())
        canonical = result.to_canonical_json()
        assert "wall_time_s" not in canonical
        assert "events_per_s" not in canonical

    def test_progress_callback_receives_telemetry(self):
        seen = []
        result = run_campaign(
            telemetry_grid(),
            progress=lambda spec, res, cached, tel: seen.append((spec.key, cached, tel)),
        )
        assert len(seen) == result.cell_count
        for key, cached, telemetry in seen:
            assert not cached
            assert isinstance(telemetry, CellTelemetry)
            assert telemetry.key == key

    def test_summarize_skips_none_and_splits_cache_states(self):
        fresh = CellTelemetry("a", False, 2.0, 1000, 500.0)
        hit = CellTelemetry("b", True, 0.0, 1000, 0.0)
        summary = summarize_telemetry([fresh, None, hit], top=5)
        assert summary["cells"] == 2
        assert summary["fresh"] == 1 and summary["cached"] == 1
        assert summary["wall_time_s"] == 2.0
        assert summary["sim_events"] == 2000
        assert summary["events_per_s"] == 500.0
        assert [entry["key"] for entry in summary["slowest"]] == ["a"]
        assert summary["events_per_s_distribution"]["p50"] == 500.0

    def test_summarize_orders_slowest_and_honours_top(self):
        cells = [
            CellTelemetry(f"cell-{i}", False, float(i + 1), 100, 10.0)
            for i in range(4)
        ]
        summary = summarize_telemetry(cells, top=2)
        assert [entry["key"] for entry in summary["slowest"]] == ["cell-3", "cell-2"]
        dist = summary["events_per_s_distribution"]
        assert dist["min"] == dist["max"] == 10.0

    def test_empty_summary_formats_without_error(self):
        summary = summarize_telemetry([])
        assert summary["cells"] == 0
        assert summary["events_per_s"] == 0.0
        report = format_telemetry_report(summary)
        assert report.startswith("campaign telemetry")
        assert "slowest" not in report

    def test_report_lists_slowest_cells(self):
        summary = summarize_telemetry([CellTelemetry("k", False, 1.5, 300, 200.0)])
        report = format_telemetry_report(summary)
        assert "slowest fresh cells:" in report
        assert "k" in report


# ----------------------------------------------------------------------
# Runner surface
# ----------------------------------------------------------------------
class TestRunnerCli:
    def subcommands(self):
        import argparse

        parser = build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return action.choices
        raise AssertionError("no subparsers registered")

    def test_trace_and_telemetry_subcommands_are_registered(self):
        assert {"trace", "telemetry"} <= set(self.subcommands())

    def test_trace_defaults(self):
        args = self.subcommands()["trace"].parse_args([])
        assert args.format == "chrome"
        assert args.scenario == "dual_homed"
        assert args.out is None

    def test_trace_rejects_unknown_format(self):
        with pytest.raises(SystemExit):
            self.subcommands()["trace"].parse_args(["--format", "pcap"])

    def test_sweep_gained_a_progress_flag(self):
        args = self.subcommands()["sweep"].parse_args(["--grid", "quick"])
        assert args.progress is False
        args = self.subcommands()["sweep"].parse_args(["--grid", "quick", "--progress"])
        assert args.progress is True
