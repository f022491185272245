"""Tests for the unified workload harness: registries, probes, composition.

The harness is the one assembly path behind the figure presets, the CLI
``cell`` subcommand and the sweep cell runner, so these tests pin the
contract everything else relies on: every registered workload runs over
every registered scenario, probes report consistent metrics, and the
heavier apps (HTTP, long-lived) survive the lossy scenarios.
"""

import gc
from collections import Counter

import pytest

from repro.mptcp.connection import MptcpConnection
from repro.netem.scenarios import build_dual_homed
from repro.sim.timers import Timer
from repro.sweep import run_cell
from repro.tcp.socket import TcpSocket
from repro.workloads import (
    CONTROLLERS,
    DEFAULT_PROBES,
    PROBES,
    SCENARIOS,
    WORKLOADS,
    ClientSetup,
    Harness,
    HarnessSpec,
    Probe,
    TraceProbe,
    Workload,
    get_workload,
)

#: Small per-workload parameters so the full matrix stays fast.
SMALL_PARAMS = {
    "bulk_transfer": {"transfer_bytes": 40_000},
    "streaming": {"block_count": 3, "block_bytes": 16 * 1024},
    "http": {"request_count": 2, "object_size": 30_000},
    "longlived": {"message_interval": 2.0},
}


def small_spec(workload: str, scenario: str = "dual_homed", **overrides) -> HarnessSpec:
    defaults = dict(
        workload=workload,
        scenario=scenario,
        controller="fullmesh",
        seed=7,
        horizon=12.0,
        params=SMALL_PARAMS[workload],
    )
    defaults.update(overrides)
    return HarnessSpec(**defaults)


class TestRegistries:
    def test_every_paper_workload_is_registered(self):
        assert {"bulk_transfer", "streaming", "http", "longlived"} == set(WORKLOADS)

    def test_get_workload_resolves_names_and_instances(self):
        bulk = get_workload("bulk_transfer")
        assert isinstance(bulk, Workload)
        assert get_workload(bulk) is bulk
        with pytest.raises(ValueError, match="unknown workload"):
            get_workload("teleport")

    def test_unknown_axis_values_are_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            Harness().run(small_spec("bulk_transfer", scenario="atlantis"))
        with pytest.raises(ValueError, match="unknown controller"):
            Harness().run(small_spec("bulk_transfer", controller="hal9000"))
        with pytest.raises(ValueError, match="unknown probe"):
            Harness().run(small_spec("bulk_transfer", probes=("sonar",)))

    def test_duplicate_probe_rejected(self):
        with pytest.raises(ValueError, match="duplicate probe"):
            Harness().run(small_spec("bulk_transfer", probes=("trace", "trace")))


class TestWorkloadScenarioMatrix:
    """Every registered workload runs over every registered scenario."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_cell_runs_and_produces_traffic(self, workload, scenario):
        spec = {
            "experiment": workload,
            "scenario": scenario,
            "scheduler": "lowest_rtt",
            "controller": "fullmesh",
            "seed_index": 0,
            "params": {**SMALL_PARAMS[workload], "horizon": 12.0},
        }
        metrics = run_cell(spec, 21)
        assert metrics["trace_packets"] > 0
        assert metrics["connections_initiated"] >= 1
        assert metrics["sim_time_end"] > 0


class TestHarnessComposition:
    def test_callable_axes_compose_with_registry_axes(self):
        def scenario_builder(sim):
            return build_dual_homed(sim, rate_mbps=8.0)

        def client_setup(ctx):
            return CONTROLLERS["passive"](ctx)

        run = Harness().run(
            HarnessSpec(
                workload="bulk_transfer",
                scenario=scenario_builder,
                controller=client_setup,
                seed=3,
                horizon=10.0,
                params={"transfer_bytes": 30_000},
            )
        )
        assert run.metrics["completion_time"] is not None
        assert isinstance(run.client, ClientSetup)

    def test_controller_setup_may_return_a_bare_stack(self):
        from repro.mptcp.stack import MptcpStack

        run = Harness().run(
            small_spec(
                "bulk_transfer",
                controller=lambda ctx: MptcpStack(ctx.sim, ctx.scenario.client, config=ctx.config),
            )
        )
        assert run.client.manager is None
        assert run.metrics["bytes_delivered"] == 40_000

    def test_run_exposes_driver_connection_and_server_apps(self):
        run = Harness().run(small_spec("streaming"))
        assert run.connection is not None
        assert run.server_apps and run.driver.blocks_sent == 3

    def test_same_spec_same_metrics(self):
        first = Harness().run(small_spec("http"))
        second = Harness().run(small_spec("http"))
        assert first.metrics == second.metrics

    def test_scheduler_axis_reaches_the_connection(self):
        run = Harness().run(small_spec("bulk_transfer", scheduler="round_robin"))
        assert run.config.scheduler == "round_robin"
        assert run.metrics["subflows_used"] >= 2  # round robin spreads load


class TestScenarioKeywords:
    """A cell's params that name a scenario builder's keywords reach it."""

    def test_a_natted_cell_sets_the_nat_idle_timeout(self):
        run = Harness().run(
            small_spec("longlived", scenario="natted", horizon=1.0,
                       params={"message_interval": 2.0, "nat_idle_timeout": 40})
        )
        assert run.scenario.middlebox.idle_timeout == 40

    def test_builders_schedule_their_mid_run_events(self):
        from repro.netem.scenarios import build_natted
        from repro.sim.engine import Simulator

        sim = Simulator(seed=1)
        dual = build_dual_homed(sim, loss_percent=(30.0, 0.0), loss_from=1.0)
        natted = build_natted(sim, flap_at=2.0)
        secondary = natted.client.interface("if1")
        assert dual.path_links[0].loss_rate == 0.0
        sim.run(until=1.5)
        assert dual.path_links[0].loss_rate == 0.3
        assert secondary.is_up
        sim.run(until=3.0)
        assert not secondary.is_up
        sim.run(until=70.0)
        assert secondary.is_up

    def test_no_workload_default_or_non_figure_grid_param_names_a_builder_keyword(self):
        """A workload default or a shared grid param named like a builder
        keyword would silently rebind the topology of every cell."""
        from repro.experiments.grids import GRIDS
        from repro.workloads.harness import scenario_keywords

        keywords = set().union(*(scenario_keywords(SCENARIOS[name]) for name in SCENARIOS))
        assert {"rate_mbps", "loss_percent", "loss_from", "nat_idle_timeout", "flap_at"} <= keywords
        for name in WORKLOADS:
            assert not keywords & set(WORKLOADS[name].default_params), name
        figures = {"fig2a", "fig2b", "fig2c", "fig3", "longlived"}
        for name, row in GRIDS.items():
            if name not in figures:
                assert not keywords & set(row.get("params", {})), name


class TestProbes:
    def test_probe_registry_contents(self):
        assert {"trace", "goodput", "subflows", "app_latency"} <= set(PROBES)

    def test_trace_probe_feeds_both_scalars_and_figures(self):
        probe = TraceProbe()
        run = Harness().run(small_spec("bulk_transfer", probes=(probe,)))
        assert run.probe("trace") is probe
        assert run.metrics["trace_packets"] == len(probe.tracer)
        trace = probe.sequence_trace()
        assert trace.points
        assert trace.highest_seq_before(run.sim.now) == 40_000

    def test_goodput_matches_delivery_accounting(self):
        run = Harness().run(small_spec("bulk_transfer"))
        elapsed = run.metrics["completion_time"]
        expected = run.metrics["bytes_delivered"] * 8 / elapsed / 1e6
        assert run.metrics["goodput_mbps"] == pytest.approx(expected)

    def test_subflow_probe_reports_per_subflow_bytes(self):
        run = Harness().run(small_spec("bulk_transfer"))
        per_subflow = run.metrics["subflow_bytes"]
        assert sum(per_subflow.values()) >= 40_000  # retransmits may add more
        assert len(per_subflow) == run.metrics["subflows_created"]

    def test_app_latency_probe_summarises_workload_samples(self):
        run = Harness().run(small_spec("http"))
        assert run.metrics["app_samples"] == 2
        assert run.metrics["app_latency_max"] >= run.metrics["app_latency_mean"] > 0
        assert run.metrics["app_latency_mean"] == pytest.approx(
            run.metrics["request_time_mean"]
        )

    def test_unknown_probe_lookup_raises(self):
        run = Harness().run(small_spec("bulk_transfer", probes=()))
        with pytest.raises(KeyError):
            run.probe("trace")

    def test_trace_data_bytes_cover_the_delivered_payload(self):
        run = Harness().run(small_spec("bulk_transfer"))
        # Wire bytes >= delivered bytes (retransmissions only add).
        assert run.metrics["trace_data_bytes"] >= run.metrics["bytes_delivered"]


class TestWorkloadsCampaign:
    def test_workloads_grid_campaign_runs_and_aggregates(self, tmp_path):
        """The full workload × scenario matrix runs as a real campaign.

        This is the grid the harness exists to unlock, so it gets an
        end-to-end smoke: every cell computes, the report renders every
        workload section, and structured metrics (per-subflow byte dicts)
        do not break numeric aggregation.
        """
        from repro.analysis.aggregate import summarize_groups
        from repro.experiments.grids import named_grid
        from repro.sweep import run_campaign
        from repro.sweep.report import format_campaign_report

        result = run_campaign(named_grid("workloads"), workers=1, store_dir=str(tmp_path))
        assert result.cell_count == len(WORKLOADS) * len(SCENARIOS)
        assert result.cache_misses == result.cell_count
        for cell in result.cells:
            assert cell.result["trace_packets"] > 0, cell.spec.key
        report = format_campaign_report(result)
        for workload in WORKLOADS:
            assert f"[{workload}]" in report
        # Structured metrics aggregate to "no samples", never a crash.
        summaries = summarize_groups(result.cells, "subflow_bytes", by=("scenario",))
        assert all(stats is None for stats in summaries.values())


class TestProbeOverheadAndTraceOptOut:
    """Per-probe overhead accounting and the trace-probe opt-out (ISSUE 3)."""

    def test_probe_timings_are_always_recorded(self):
        run = Harness().run(small_spec("bulk_transfer"))
        assert set(run.probe_timings) == set(run.probes)
        assert all(timing >= 0.0 for timing in run.probe_timings.values())
        # Off by default: wall times must not leak into the deterministic
        # metrics surface.
        assert "probe_overhead_s" not in run.metrics

    def test_overhead_metric_is_opt_in(self):
        run = Harness().run(small_spec("bulk_transfer", measure_probe_overhead=True))
        overhead = run.metrics["probe_overhead_s"]
        assert set(overhead) == {
            "trace", "goodput", "subflows", "app_latency", "faults", "fallback",
            "repair", "aggregate", "events",
        }
        assert all(value >= 0.0 for value in overhead.values())

    def test_trace_opt_out_drops_the_probe_and_its_metrics(self):
        run = Harness().run(small_spec("bulk_transfer", trace_probe=False))
        assert "trace" not in run.probes
        for metric in ("trace_packets", "trace_digest", "trace_data_bytes"):
            assert metric not in run.metrics
        # The cheap probes still report.
        assert run.metrics["goodput_mbps"] > 0
        assert run.metrics["subflows_created"] >= 1

    def test_trace_opt_out_skips_probe_instances_too(self):
        probe = TraceProbe()
        run = Harness().run(
            small_spec("bulk_transfer", probes=(probe,), trace_probe=False)
        )
        assert run.probes == {} and probe.tracer is None

    def test_cell_level_opt_out_via_params(self):
        spec = {
            "experiment": "bulk_transfer",
            "scenario": "dual_homed",
            "scheduler": "lowest_rtt",
            "controller": "fullmesh",
            "seed_index": 0,
            "params": {**SMALL_PARAMS["bulk_transfer"], "horizon": 12.0,
                       "trace_probe": False},
        }
        metrics = run_cell(spec, 21)
        assert "trace_packets" not in metrics and "trace_digest" not in metrics
        assert metrics["events_processed"] > 0
        # The flag is part of the cell's configuration, so traced and
        # untraced cells can never share a cache entry.
        from repro.sweep import CellSpec

        traced = dict(spec, params={**spec["params"], "trace_probe": True})
        assert (CellSpec.from_dict(spec).config_hash(21)
                != CellSpec.from_dict(traced).config_hash(21))


class TestLossyScenarioApps:
    """The §4.5/§4.1 apps under the loss-heavy scenarios (satellite of ISSUE 2)."""

    def test_http_completes_under_asymmetric_loss(self):
        run = Harness().run(
            HarnessSpec(
                workload="http",
                scenario="asymmetric_loss",
                controller="fullmesh",
                seed=5,
                horizon=30.0,
                params={"request_count": 3, "object_size": 50_000},
            )
        )
        assert run.metrics["requests_completed"] == 3
        assert run.metrics["bytes_delivered"] >= 3 * 50_000

    def test_http_survives_path_blackout_and_recovery(self):
        # The primary path blacks out from t=1.5s to t=3.5s; requests keep
        # completing because the second subflow carries reinjected data.
        run = Harness().run(
            HarnessSpec(
                workload="http",
                scenario="path_failure_recovery",
                controller="fullmesh",
                seed=5,
                horizon=40.0,
                params={"request_count": 4, "object_size": 40_000},
            )
        )
        assert run.metrics["requests_completed"] == 4
        assert run.metrics["request_time_max"] < 40.0

    def test_longlived_delivers_every_message_under_asymmetric_loss(self):
        run = Harness().run(
            HarnessSpec(
                workload="longlived",
                scenario="asymmetric_loss",
                controller="userspace_fullmesh",
                seed=5,
                horizon=30.0,
                params={"message_interval": 3.0},
            )
        )
        assert run.metrics["messages_sent"] > 0
        assert run.metrics["messages_delivered"] == run.metrics["messages_sent"]

    def test_longlived_rides_out_a_path_blackout(self):
        run = Harness().run(
            HarnessSpec(
                workload="longlived",
                scenario="path_failure_recovery",
                controller="userspace_fullmesh",
                seed=5,
                horizon=40.0,
                params={"message_interval": 1.0},
            )
        )
        # Messages sent during the t=1.5-3.5s blackout arrive late but do
        # arrive; everything sent well before the horizon is delivered.
        sent = run.metrics["messages_sent"]
        assert sent >= 30
        assert run.metrics["messages_delivered"] >= sent - 2
        assert run.metrics["delivery_time_max"] > run.metrics["delivery_time_mean"]


class TestClosedConnectionsFreeThemselves:
    """A closed connection holds no reference cycle and no app holds it.

    The cyclic GC is paused for a whole run, so anything a closed
    connection leaves in a cycle stays in memory until the run ends; on an
    HTTP cell (one connection per request) that is every connection it
    ever opened.  Mid-run, a full collection must find none of the
    connection, socket or timer objects in garbage cycles, and no closed
    connection may still be reachable.
    """

    def test_http_cell_frees_each_connection_at_close(self):
        census = {}
        census_at = 10.0

        def take_census():
            census["gc_paused"] = not gc.isenabled()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                gc.collect()
                census["cyclic"] = Counter(
                    type(obj).__name__ for obj in gc.garbage
                    if isinstance(obj, (MptcpConnection, TcpSocket, Timer))
                )
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
            gc.collect()
            census["closed_alive"] = sum(
                1 for obj in gc.get_objects()
                if isinstance(obj, MptcpConnection) and obj.closed
            )

        class CensusProbe(Probe):
            """Takes the census mid-run; counts the requests done by then."""

            name = "census"

            def attach(self, ctx):
                ctx.sim.schedule_at(census_at, take_census)

            def collect(self, run):
                census["closed"] = sum(
                    1 for record in run.driver.records
                    if record.completed_at is not None and record.completed_at <= census_at
                )
                return {}

        gc.collect()
        run = Harness().run(
            HarnessSpec(
                workload="http",
                scenario="asymmetric_loss",
                controller="userspace_fullmesh",
                seed=33,
                horizon=30.0,
                params={"request_count": 60, "object_size": 10_000},
                probes=(*DEFAULT_PROBES, CensusProbe()),
                trace_probe=False,
            )
        )
        assert census["gc_paused"]
        assert 30 <= census["closed"] < 60  # mid-run, most requests done
        assert census["cyclic"] == {}
        assert census["closed_alive"] == 0
        assert run.metrics["requests_completed"] == 60
