"""Tests for the applications, analysis helpers, topology builder and the
scaled-down experiment harness."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

from tests.helpers import SERVER_PORT, build_dual_homed_rig, child_env
from repro.analysis.cdf import Cdf
from repro.analysis.report import DEFAULT_FRACTIONS, format_cdf_table, format_table
from repro.analysis.stats import summarize
from repro.analysis.trace import extract_sequence_trace, syn_join_delays
from repro.apps.http import HttpClientDriver, HttpServerApp
from repro.apps.longlived import LongLivedApp
from repro.apps.streaming import StreamingSinkApp, StreamingSourceApp
from repro.experiments.runner import build_parser, main as runner_main
from repro.mptcp.path_manager import NdiffportsPathManager
from repro.mptcp.stack import MptcpStack
from repro.net.tracer import PacketTracer
from repro.netem.scenarios import build_lan
from repro.netem.topology import Topology
from repro.sim.engine import Simulator


class TestStreamingApps:
    def test_source_and_sink_block_accounting(self):
        sinks = []
        rig = build_dual_homed_rig(
            rate_mbps=10.0,
            server_listener_factory=lambda: StreamingSinkApp(block_bytes=64 * 1024),
        )
        source = StreamingSourceApp(block_bytes=64 * 1024, interval=1.0, block_count=5)
        rig.client_stack.connect(rig.server_addresses[0], SERVER_PORT, listener=source,
                                 local_address=rig.client_addresses[0])
        rig.sim.run(until=20.0)
        sink = rig.server_apps[0]
        assert source.blocks_sent == 5
        assert len(sink.blocks) == 5
        delays = sink.completion_times()
        assert all(0 < delay < 1.0 for delay in delays)
        assert sink.late_blocks() == 0

    def test_source_validation(self):
        with pytest.raises(ValueError):
            StreamingSourceApp(block_bytes=0)


class TestHttpApps:
    def test_sequential_requests(self):
        sim = Simulator(seed=5)
        scenario = build_lan(sim)
        servers = []
        server_stack = MptcpStack(sim, scenario.server)
        server_stack.listen(80, lambda: servers.append(HttpServerApp(object_size=100_000)) or servers[-1])
        client_stack = MptcpStack(sim, scenario.client, path_manager=NdiffportsPathManager(2))
        driver = HttpClientDriver(client_stack, scenario.server_addresses[0], 80,
                                  request_count=5, object_size=100_000)
        driver.start()
        sim.run(until=30.0)
        assert driver.done
        assert len(driver.completion_times()) == 5
        assert all(record.received_bytes >= 100_000 for record in driver.records)
        # HTTP/1.0: one connection per request, all torn down afterwards.
        assert client_stack.connections == []
        assert len(servers) == 5

    def test_closed_app_lets_go_of_its_connection(self):
        """A server app drops its connection at close and keeps its
        life-cycle times, so a harness that holds every app holds no
        closed connection."""
        sim = Simulator(seed=5)
        scenario = build_lan(sim)
        servers = []
        server_stack = MptcpStack(sim, scenario.server)
        server_stack.listen(80, lambda: servers.append(HttpServerApp(object_size=20_000)) or servers[-1])
        client_stack = MptcpStack(sim, scenario.client)
        driver = HttpClientDriver(client_stack, scenario.server_addresses[0], 80,
                                  request_count=3, object_size=20_000)
        driver.start()
        sim.run(until=30.0)
        assert driver.done and len(servers) == 3
        for app in servers:
            assert app.connection is None
            assert app.established_at <= app.finished_at <= app.closed_at

    def test_driver_validation(self):
        sim = Simulator(seed=5)
        scenario = build_lan(sim)
        stack = MptcpStack(sim, scenario.client)
        with pytest.raises(ValueError):
            HttpClientDriver(stack, scenario.server_addresses[0], 80, request_count=0)


class TestLongLivedApp:
    def test_messages_tracked(self):
        rig = build_dual_homed_rig()
        app = LongLivedApp(message_bytes=100, message_interval=None)
        rig.client_stack.connect(rig.server_addresses[0], SERVER_PORT, listener=app,
                                 local_address=rig.client_addresses[0])
        rig.sim.run(until=1.0)
        app.send_message()
        rig.sim.run(until=2.0)
        assert app.delivered_messages == 1
        assert app.messages[0].delivery_time is not None


class TestAnalysis:
    def test_cdf_percentiles(self):
        cdf = Cdf(range(1, 101))
        assert cdf.median == pytest.approx(50, abs=1)
        assert cdf.percentile(0.95) == pytest.approx(95, abs=1)
        assert cdf.probability_below(10) == pytest.approx(0.10)
        with pytest.raises(ValueError):
            Cdf([]).percentile(0.5)
        with pytest.raises(ValueError):
            cdf.percentile(1.5)

    def test_cdf_percentile_is_nearest_rank(self):
        """``percentile(f)`` is the smallest sample with at least ``f`` of
        the samples at or below it, checked in exact arithmetic."""
        for count in range(1, 41):
            samples = [float(value * value) for value in range(1, count + 1)]
            cdf = Cdf(reversed(samples))
            for fraction in DEFAULT_FRACTIONS:
                expected = next(
                    value for rank, value in enumerate(samples, start=1)
                    if Fraction(rank, count) >= Fraction(repr(fraction))
                )
                assert cdf.percentile(fraction) == expected, (count, fraction)
        ten = Cdf(range(1, 11))
        assert [ten.percentile(f) for f in (0.05, 0.10, 0.50, 0.90)] == [1, 1, 5, 9]
        assert Cdf([1, 2, 3]).percentile(0.05) == 1

    def test_summary(self):
        stats = summarize([1, 2, 3, 4, 5])
        assert stats.mean == 3
        assert stats.median == 3
        assert stats.count == 5
        with pytest.raises(ValueError):
            summarize([])

    def test_tables(self):
        table = format_table(["a", "b"], [[1, 2], [30, 40]])
        assert "30" in table and table.splitlines()[0].startswith("a")
        cdf_table = format_cdf_table({"x": Cdf([1, 2, 3])}, unit="s")
        assert "p50" in cdf_table and "mean" in cdf_table

    def test_trace_extraction_from_transfer(self):
        rig = build_dual_homed_rig(expected_bytes=100_000)
        tracer = rig.scenario.topology.add_tracer("capture")
        sender, conn = rig.connect_bulk(100_000)
        rig.sim.run(until=10.0)
        trace = extract_sequence_trace(tracer, source_address=rig.client_addresses[0])
        assert trace.points
        assert trace.highest_seq_before(rig.sim.now) == 100_000
        assert len(trace.subflow_labels()) >= 1

    def test_syn_join_delay_extraction(self):
        sim = Simulator(seed=6)
        scenario = build_lan(sim)
        tracer = scenario.topology.add_tracer("capture", ["lan"])
        servers = []
        server_stack = MptcpStack(sim, scenario.server)
        server_stack.listen(80, lambda: servers.append(HttpServerApp(object_size=50_000)) or servers[-1])
        client_stack = MptcpStack(sim, scenario.client, path_manager=NdiffportsPathManager(2))
        driver = HttpClientDriver(client_stack, scenario.server_addresses[0], 80, request_count=3, object_size=50_000)
        driver.start()
        sim.run(until=10.0)
        delays = syn_join_delays(tracer.records)
        assert len(delays) == 3
        assert all(0 < delay < 0.01 for delay in delays)

    def test_syn_join_delays_pair_overlapping_connections_by_token(self):
        """Two connections interleave (SYN A, SYN B, JOIN A, JOIN B): each
        JOIN pairs with its own connection through the token of the key its
        SYN/ACK returned, and a JOIN captured on two links counts once."""
        from repro.mptcp.options import MpCapableOption, MpJoinOption
        from repro.mptcp.token import derive_token
        from repro.net.addressing import IPAddress
        from repro.net.packet import Segment, TCPFlags
        from repro.net.tracer import PacketRecord

        client, server = IPAddress("10.0.0.1"), IPAddress("10.0.0.2")
        syn, synack = TCPFlags.SYN, TCPFlags.SYN | TCPFlags.ACK
        records = []

        def capture(time, segment, link="lan"):
            records.append(PacketRecord(time, segment, "client:eth0", "server:eth0", link))

        for time, port, client_key, server_key in ((0.0, 40001, 11, 21), (0.001, 40002, 12, 22)):
            capture(time, Segment(client, server, port, 80, flags=syn,
                                  options=(MpCapableOption(sender_key=client_key),)))
            capture(time + 0.0002, Segment(server, client, 80, port, flags=synack,
                                           options=(MpCapableOption(sender_key=server_key),)))
        for time, port, server_key in ((0.020, 41001, 21), (0.021, 41002, 22)):
            join = Segment(client, server, port, 80, flags=syn,
                           options=(MpJoinOption(token=derive_token(server_key)),))
            capture(time, join)
            capture(time + 0.0001, join, link="wan")

        delays = syn_join_delays(records)
        assert delays == pytest.approx([0.020, 0.020])


class TestTopologyBuilder:
    def test_duplicate_names_rejected(self, sim):
        topo = Topology(sim)
        topo.add_host("h1")
        with pytest.raises(ValueError):
            topo.add_host("h1")

    def test_lookup_helpers(self, sim):
        topo = Topology(sim)
        h1 = topo.add_host("h1")
        h2 = topo.add_host("h2")
        link = topo.add_link("l1", (h1, "eth0", "10.0.0.1"), (h2, "eth0", "10.0.0.2"))
        assert topo.host("h1") is h1
        assert topo.link("l1") is link
        tracer = topo.add_tracer("t")
        assert topo.tracer("t") is tracer
        assert isinstance(tracer, PacketTracer)


class TestExperimentsSmall:
    """Tiny-scale runs of every experiment: fast sanity that the harness works."""

    def test_fig2a_small(self):
        from repro.experiments import run_fig2a

        result = run_fig2a(seed=2, duration=4.0)
        assert result.switch_time is not None
        assert "Figure 2a" in result.format_report()

    def test_fig2b_small(self):
        from repro.experiments import run_fig2b

        result = run_fig2b(seed=2, loss_percents=(30.0,), block_count=10, repetitions=1)
        assert len(result.cdfs) == 2
        assert "Figure 2b" in result.format_report()

    def test_fig2c_small(self, fig2c):
        assert len(fig2c.cdf_refresh) == 10
        assert len(fig2c.cdf_ndiffports) == 10
        assert "Figure 2c" in fig2c.format_report()

    def test_fig2c_plans_the_fig2c_grid(self, monkeypatch):
        """At its defaults ``run_fig2c`` plans exactly the twenty cells of
        ``runner sweep --grid fig2c``, and ``--seed`` is the campaign seed:
        seeds 1 and 2 plan different cells (checked without simulating)."""
        from repro.experiments import fig2c_loadbalance
        from repro.experiments.grids import named_grid
        from repro.sweep.engine import plan_campaign

        planned = []

        def plan_only(grid, **_run_options):
            planned.append(plan_campaign(grid).hashes)
            raise StopIteration

        monkeypatch.setattr(fig2c_loadbalance, "run_campaign", plan_only)
        for seed in (1, 2):
            with pytest.raises(StopIteration):
                fig2c_loadbalance.run_fig2c(seed=seed)
            assert planned[-1] == plan_campaign(named_grid("fig2c", seed)).hashes
            assert len(planned[-1]) == 20
        assert planned[0] != planned[1]

    def test_fig3_small(self):
        from repro.experiments import run_fig3

        result = run_fig3(seed=2, request_count=20)
        assert result.mean_overhead > 0
        assert result.kernel["mp_join_samples"] == result.userspace["mp_join_samples"] == 20
        assert "Figure 3" in result.format_report()

    def test_fig3_plans_the_fig3_grid(self, monkeypatch):
        """At its defaults ``run_fig3`` plans exactly the two cells of
        ``runner sweep --grid fig3``, so the figure and the stored grid
        share their config hashes (checked without simulating)."""
        from repro.experiments import fig3_pm_delay
        from repro.experiments.grids import named_grid
        from repro.sweep.engine import plan_campaign

        planned = []

        def plan_only(grid, **_run_options):
            planned.append(plan_campaign(grid).hashes)
            raise StopIteration

        monkeypatch.setattr(fig3_pm_delay, "run_campaign", plan_only)
        for seed in (1, 2):
            with pytest.raises(StopIteration):
                fig3_pm_delay.run_fig3(seed=seed)
            assert planned[-1] == plan_campaign(named_grid("fig3", seed)).hashes
            assert len(planned[-1]) == 2

    def test_longlived_plans_the_longlived_grid(self, monkeypatch):
        """At its defaults ``run_longlived`` plans exactly the one cell of
        ``runner sweep --grid longlived`` (checked without simulating)."""
        from repro.experiments import longlived
        from repro.experiments.grids import named_grid
        from repro.sweep.engine import plan_campaign

        planned = []

        def plan_only(grid, **_run_options):
            planned.append(plan_campaign(grid).hashes)
            raise StopIteration

        monkeypatch.setattr(longlived, "run_campaign", plan_only)
        for seed in (1, 2):
            with pytest.raises(StopIteration):
                longlived.run_longlived(seed=seed)
            assert planned[-1] == plan_campaign(named_grid("longlived", seed)).hashes
            assert len(planned[-1]) == 1
        assert planned[0] != planned[1]

    def test_longlived_small(self):
        from repro.experiments import run_longlived

        result = run_longlived(seed=2, duration=400.0, nat_timeout=40.0, message_interval=100.0)
        assert result.all_messages_delivered
        assert "NAT" in result.format_report()

    def test_runner_cli(self, capsys):
        parser = build_parser()
        args = parser.parse_args(["fig2a"])
        assert args.experiment == "fig2a"
        assert runner_main(["fig2a", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert "Figure 2a" in captured.out

    def test_runner_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_runner_list_prints_every_registry(self, capsys):
        assert runner_main(["list"]) == 0
        out = capsys.readouterr().out
        for section in ("workloads", "scenarios:", "controllers:", "schedulers:", "probes:", "grids:"):
            assert section in out
        for name in ("http", "longlived", "asymmetric_loss", "userspace_fullmesh", "workloads"):
            assert name in out

    def test_runner_cell_runs_one_harness_point(self, capsys):
        assert runner_main([
            "cell",
            "--workload", "http",
            "--scenario", "dual_homed",
            "--controller", "fullmesh",
            "--horizon", "10",
            "--params", '{"request_count": 1, "object_size": 20000}',
        ]) == 0
        out = capsys.readouterr().out
        assert "cell http/dual_homed/lowest_rtt/fullmesh/seed1" in out
        assert "requests_completed = 1" in out

    @pytest.mark.parametrize("argv, complaint", [
        (["sweep", "--grid", "nope"], "--grid: invalid choice: 'nope'"),
        (["baseline", "--grid", "nope", "--out", "x.json"], "--grid: invalid choice: 'nope'"),
        (["diff", "--baseline", "baselines/quick.json", "--grid", "nope"], "--grid: invalid choice: 'nope'"),
        (["telemetry", "--grid", "nope"], "--grid: invalid choice: 'nope'"),
        (["cell", "--params", "{bad"], "--params: not valid JSON"),
        (["trace", "--params", "[1]"], "--params: expected a JSON object"),
        (["fuzz", "--shrink", "--plan", "x", "--params", "{bad"], "--params: not valid JSON"),
        (["diff", "--baseline", "gone.json"], "--baseline: cannot read 'gone.json'"),
        (["diff", "--baseline", "baselines/quick.json", "--candidate", "gone.json"],
         "--candidate: cannot read 'gone.json'"),
        (["worker", "--store", "gone", "--plan", "gone.json"], "--plan: cannot read 'gone.json'"),
        (["store", "stats", "--store", "gone"], "--store: 'gone' is not an existing directory"),
        (["store", "manifest", "--store", "gone"], "--store: 'gone' is not an existing directory"),
        (["store", "verify", "--store", "gone"], "--store: 'gone' is not an existing directory"),
        (["diff", "--baseline", "baselines/quick.json", "--store", "gone", "--from-store"],
         "--store: 'gone' is not an existing directory"),
        (["sweep", "--grid", "quick", "--workers", "0"], "--workers: expected a positive int, got '0'"),
        (["baseline", "--grid", "quick", "--out", "gone", "--workers", "0"], "--workers: expected a positive int"),
        (["diff", "--baseline", "baselines/quick.json", "--workers", "-2"], "--workers: expected a positive int"),
        (["telemetry", "--grid", "quick", "--workers", "0"], "--workers: expected a positive int"),
        (["fuzz", "--workers", "0"], "--workers: expected a positive int"),
        (["fuzz", "--seeds", "0"], "--seeds: expected a positive int"),
        (["cell", "--connections", "0"], "--connections: expected a positive int"),
        (["trace", "--connections", "0"], "--connections: expected a positive int"),
        (["cell", "--horizon", "-1"], "--horizon: expected a positive float, got '-1'"),
        (["cell", "--horizon", "nan"], "--horizon: expected a positive float"),
        (["fuzz", "--shrink", "--plan", "x", "--horizon", "0"], "--horizon: expected a positive float"),
        (["telemetry", "--grid", "quick", "--top", "0"], "--top: expected a positive int"),
        (["trace", "--limit", "many"], "--limit: expected a positive int, got 'many'"),
        (["fig2b", "--blocks", "0"], "--blocks: expected a positive int"),
        (["fig2c", "--runs", "0"], "--runs: expected a positive int"),
        (["fig2c", "--scale", "0"], "--scale: expected a fraction in (0, 1], got '0'"),
        (["fig2c", "--scale", "1.5"], "--scale: expected a fraction in (0, 1], got '1.5'"),
        (["fig2c", "--scale", "nan"], "--scale: expected a fraction in (0, 1], got 'nan'"),
        (["fig3", "--requests", "-5"], "--requests: expected a positive int"),
        (["longlived", "--duration", "0"], "--duration: expected a positive float"),
        (["all", "--duration", "inf"], "--duration: expected a positive float"),
        (["cell", "--workload", "nosuch"],
         "--workload: unknown workload 'nosuch' (have bulk_transfer, http, longlived, streaming)"),
        (["cell", "--scenario", "nosuch"], "--scenario: unknown scenario 'nosuch' (have addaddr_stripped, "),
        (["cell", "--controller", "nosuch"], "--controller: unknown controller 'nosuch' (have fullmesh, "),
        (["cell", "--scheduler", "nosuch"],
         "--scheduler: unknown scheduler 'nosuch' (have lowest_rtt, redundant, round_robin)"),
        (["trace", "--workload", "nosuch"], "--workload: unknown workload 'nosuch'"),
        (["trace", "--scenario", "nosuch"], "--scenario: unknown scenario 'nosuch'"),
        (["trace", "--controller", "nosuch"], "--controller: unknown controller 'nosuch'"),
        (["trace", "--scheduler", "nosuch"], "--scheduler: unknown scheduler 'nosuch'"),
        (["trace", "--categories", "timer,nosuch"],
         "--categories: unknown event category 'nosuch' (have connection, fallback, fault, pm, "
         "scheduler, subflow, timer)"),
        (["fuzz", "--shrink", "--plan", "known_bad_dual_homed", "--workload", "nosuch"],
         "--workload: unknown workload 'nosuch'"),
        (["fuzz", "--shrink", "--plan", "known_bad_dual_homed", "--controller", "nosuch"],
         "--controller: unknown controller 'nosuch'"),
        (["fuzz", "--shrink", "--plan", "known_bad_dual_homed", "--scheduler", "nosuch"],
         "--scheduler: unknown scheduler 'nosuch'"),
        (["fuzz", "--shrink", "--plan", "known_bad_dual_homed", "--base-scenario", "nosuch"],
         "--base-scenario: unknown scenario 'nosuch'"),
        (["fuzz", "--shrink", "--plan", "baselines/quick.json"],
         "--plan: 'baselines/quick.json' is not a fault plan file (unsupported fault plan format "
         "version None (expected 1)); the named plans are addaddr_strip, dss_storm, "
         "known_bad_dual_homed, "),
    ])
    def test_runner_bad_grid_or_params_is_a_usage_error(self, argv, complaint, capsys):
        """argparse rejects them (exit 2 + usage), no handler runs and no
        ValueError / KeyError / JSONDecodeError / FileNotFoundError traceback
        escapes; a store that is only read is not created (a typo'd path used
        to ``verify`` as ``all 0 object(s) ok``), a non-positive count or
        duration runs nothing (``cell --horizon -1`` used to exit 0 with an
        all-zero cell), an unknown registry name is answered with the known
        ones, and a ``--plan`` file that is not a plan runs no cell."""
        with pytest.raises(SystemExit) as exit_info:
            runner_main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert complaint in err and "Traceback" not in err
        assert not os.path.exists("gone")

    def test_runner_survives_a_closed_stdout_pipe(self):
        """``runner list | head``: the reader is gone before stdout is flushed;
        the process exits non-zero without a BrokenPipeError traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro.experiments.runner", "list"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env=child_env(),
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert done.stderr == ""

    def test_grid_names_are_exactly_what_named_grid_accepts(self):
        from repro.experiments.grids import GRID_NAMES, named_grid

        assert len(set(GRID_NAMES)) == len(GRID_NAMES)
        assert [named_grid(name).name for name in GRID_NAMES] == list(GRID_NAMES)
        with pytest.raises(ValueError) as error:
            named_grid("nope")
        assert str(list(GRID_NAMES)) in str(error.value)

    def test_a_mutated_named_grid_leaves_the_table_alone(self):
        from repro.experiments.grids import named_grid

        before = named_grid("quick").as_dict()
        grid = named_grid("quick")
        grid.params["horizon"] = 1.0
        grid.scenarios.append("lan")
        assert named_grid("quick").as_dict() == before

    def test_every_figure_flag_feeds_a_keyword_of_its_run_function(self):
        """A ``FIGURES`` row's ``dest``s and ``seed`` are parameters of its
        ``run`` function, so renaming a keyword fails here, not at run time."""
        import inspect

        from repro.experiments import runner

        for name, (reference, flags) in runner.FIGURES.items():
            parameters = inspect.signature(runner._resolve(reference)).parameters
            dests = {"seed", *(options["dest"] for _, options in flags)}
            assert dests <= set(parameters), (name, dests - set(parameters))

    def test_runner_list_grids_section_is_pinned(self, capsys):
        """The ``grids:`` section is pinned byte for byte: names, order and
        axes (regenerate the fixture from ``runner list`` when a grid or a
        registered scenario is added on purpose)."""
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "runner_list_grids.txt"
        assert runner_main(["list"]) == 0
        assert fixture.read_text(encoding="utf-8") in capsys.readouterr().out

    def test_runner_trace_and_cell_report_the_same_key(self, tmp_path, capsys):
        """Both name the cell by its grid key, ``/conn{N}`` suffix included."""
        coordinates = ["--connections", "3", "--horizon", "5",
                       "--params", '{"transfer_bytes": 20000}']
        assert runner_main(["cell", *coordinates]) == 0
        cell_key = capsys.readouterr().out.splitlines()[0]
        assert runner_main(["trace", *coordinates, "--out", str(tmp_path / "t.json")]) == 0
        trace_key = capsys.readouterr().out.splitlines()[0]
        assert cell_key == "cell bulk_transfer/dual_homed/lowest_rtt/passive/seed1/conn3:"
        assert trace_key.startswith("trace " + cell_key[len("cell "):])
