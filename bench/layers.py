"""Per-layer drivers: one layer at a time, through its public functions, against stubs.

Each driver times a fixed number of operations of one package under
``src/repro/`` and reports host time per operation (or an exact count).
The numbers are taken in the traced run only and carry no regression
bound; they say *where* an end-to-end change came from.  What each one is
expected to move is data, in ``bench/interactions.json``.

Operation counts are sized so a measurement takes 0.1–0.2 s on the machine
the baseline was recorded on; each is repeated and the median reported.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator

from bench import python_child
from bench.trace import Tracer
from bench.workloads import TINY_SEEDS, StorePhase, TinyCells, bulk_cell, campaign_grid_name

REPEATS = 3
_PORT = 9001


@contextmanager
def _stopwatch() -> Iterator[list]:
    """Time a block with the cyclic GC paused, as ``Harness.run`` does."""
    elapsed = [0.0]
    was_enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    try:
        yield elapsed
    finally:
        elapsed[0] = time.perf_counter() - started
        if was_enabled:
            gc.enable()


def _median(driver: Callable[[], float], repeats: int = REPEATS) -> float:
    return statistics.median(driver() for _ in range(repeats))


def _count(full: int, scale: float) -> int:
    return max(int(full * scale), 8)


def _process_repeats(scale: float, full: int) -> int:
    """Repeats of a whole-process measurement: one is enough for the scaled smoke run."""
    return full if scale >= 1.0 else 1


def _noop() -> None:
    pass


def _require(condition: bool, what: str) -> None:
    """A driver whose work did not happen must not report a time for it."""
    if not condition:
        raise RuntimeError(f"layer driver check failed: {what}")


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def sim_metrics(scale: float) -> dict[str, float]:
    from repro.sim.engine import Simulator
    from repro.sim.timers import Timer

    count = _count(100_000, scale)

    def through_queue(first_delay: float, span: float) -> float:
        sim = Simulator(seed=1)
        step = span / count
        with _stopwatch() as elapsed:
            schedule = sim.schedule
            for index in range(count):
                schedule(first_delay + index * step, _noop)
            sim.run()
        _require(sim.processed_events == count, "every scheduled event ran")
        return elapsed[0] / count * 1e6

    def cancel_churn() -> float:
        # The RTO pattern: every restart cancels the armed event; the dead
        # entries are compacted or skipped when the loop runs.
        sim = Simulator(seed=1)
        timer = Timer(sim, _noop)
        with _stopwatch() as elapsed:
            start = timer.start
            for _ in range(count):
                start(0.2)
            sim.run()
        return elapsed[0] / count * 1e6

    return {
        # Inside the 512 ms calendar wheel / beyond it, in the spill heap.
        "sim.schedule_pop_us": _median(lambda: through_queue(0.0, 0.5)),
        "sim.spill_us": _median(lambda: through_queue(1.0, 10.0)),
        "sim.cancel_us": _median(cancel_churn),
    }


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------
class _SinkStack:
    """A transport stack that only counts what the host hands it."""

    def __init__(self) -> None:
        self.received = 0

    def on_segment(self, segment, iface) -> None:
        self.received += 1

    def on_local_address_up(self, iface) -> None:
        pass

    def on_local_address_down(self, iface) -> None:
        pass


def net_metrics(scale: float) -> dict[str, float]:
    from repro.net import Host, Link
    from repro.net.addressing import ip
    from repro.net.packet import Segment, TCPFlags
    from repro.sim.engine import Simulator

    count = _count(20_000, scale)

    def deliver() -> float:
        sim = Simulator(seed=1)
        sender, receiver = Host(sim, "a"), Host(sim, "b")
        near = sender.add_interface("eth0", "10.0.0.1")
        far = receiver.add_interface("eth0", "10.0.0.2")
        Link(sim, rate_bps=1e9, delay=0.001, queue_packets=count, name="l").connect(near, far)
        sink = _SinkStack()
        receiver.install_stack(sink)
        segment = Segment(
            src=ip("10.0.0.1"), dst=ip("10.0.0.2"), sport=1, dport=2,
            payload_len=1400, flags=TCPFlags.ACK,
        )
        with _stopwatch() as elapsed:
            send = sender.send
            for _ in range(count):
                send(segment)
            sim.run()
        _require(sink.received == count, "every segment reached the sink")
        return elapsed[0] / count * 1e6

    return {"net.deliver_us": _median(deliver)}


# ----------------------------------------------------------------------
# tcp
# ----------------------------------------------------------------------
def _socket_pair(sim, observer_factory, port: int):
    """Two bare sockets whose ``transmit`` is the peer's ``handle_segment``."""
    from repro.net.addressing import ip
    from repro.tcp.socket import TcpSocket

    pair: list = []

    def to_peer(index: int):
        return lambda segment: sim.schedule(0.005, pair[index].handle_segment, segment)

    pair.append(TcpSocket(sim, ip("10.0.0.1"), port, ip("10.0.0.2"), 80,
                          transmit=to_peer(1), observer=observer_factory()))
    pair.append(TcpSocket(sim, ip("10.0.0.2"), 80, ip("10.0.0.1"), port,
                          transmit=to_peer(0), observer=observer_factory()))
    return pair


def tcp_metrics(scale: float) -> dict[str, float]:
    from repro.sim.engine import Simulator
    from repro.tcp.config import TcpConfig
    from repro.tcp.socket import SubflowObserver

    mss = TcpConfig().mss
    total_bytes = _count(2_000_000, scale)
    pairs = _count(1_500, scale)

    class Pump(SubflowObserver):
        """Keeps the window full until ``remaining`` bytes are sent."""

        remaining = 0

        def pump(self, sock) -> None:
            while self.remaining > 0:
                chunk = min(mss, self.remaining, sock.available_window())
                if chunk <= 0 or not sock.send_data(chunk):
                    return
                self.remaining -= chunk

        def on_send_space(self, sock) -> None:
            self.pump(sock)

        def on_acked(self, sock, metadata_list, newly_acked) -> None:
            self.pump(sock)

    class CloseOnFin(SubflowObserver):
        def on_fin_received(self, sock) -> None:
            sock.close()

    def stream() -> float:
        sim = Simulator(seed=1)
        pumps: list = []

        def make_pump():
            pumps.append(Pump())
            return pumps[-1]

        client, server = _socket_pair(sim, make_pump, 40000)
        client.connect()
        sim.run(until=1.0)
        pumps[0].remaining = total_bytes
        with _stopwatch() as elapsed:
            pumps[0].pump(client)
            sim.run(until=600.0)
        _require(server.bytes_received == total_bytes, "tcp stream delivered")
        return elapsed[0] / (total_bytes / mss) * 1e6

    def handshakes() -> float:
        sim = Simulator(seed=1)
        with _stopwatch() as elapsed:
            clients = [
                _socket_pair(sim, CloseOnFin, 10000 + index)[0] for index in range(pairs)
            ]
            for client in clients:
                client.connect()
            sim.run(until=1.0)
            for client in clients:
                client.close()
            sim.run(until=30.0)
        _require(all(client.is_closed for client in clients), "every tcp pair closed")
        return elapsed[0] / pairs * 1e6

    return {
        "tcp.segment_us": _median(stream),
        "tcp.handshake_us": _median(handshakes),
    }


# ----------------------------------------------------------------------
# mptcp
# ----------------------------------------------------------------------
def mptcp_metrics(scale: float) -> dict[str, float]:
    from repro.apps.bulk import BulkReceiverApp, BulkSenderApp
    from repro.mptcp.path_manager import FullMeshPathManager
    from repro.mptcp.stack import MptcpStack
    from repro.netem.scenarios import build_dual_homed
    from repro.sim.engine import Simulator
    from repro.tcp.config import TcpConfig

    mss = TcpConfig().mss
    total_bytes = _count(2_000_000, scale)
    connections = _count(300, scale)

    def rig():
        sim = Simulator(seed=1)
        scenario = build_dual_homed(sim)
        MptcpStack(sim, scenario.server).listen(_PORT, BulkReceiverApp)
        client = MptcpStack(sim, scenario.client, path_manager=FullMeshPathManager())

        def connect(size: int) -> BulkSenderApp:
            sender = BulkSenderApp(size)
            client.connect(
                scenario.server_addresses[0], _PORT, listener=sender,
                local_address=scenario.client_addresses[0],
            )
            return sender

        return sim, connect

    def stream() -> float:
        with _stopwatch() as elapsed:
            sim, connect = rig()
            sender = connect(total_bytes)
            sim.run(until=600.0)
        _require(sender.completed, "mptcp stream delivered")
        return elapsed[0] / (total_bytes / mss) * 1e6

    def setups() -> float:
        senders: list = []
        with _stopwatch() as elapsed:
            sim, connect = rig()
            for index in range(connections):
                sim.schedule(index * 0.01, lambda: senders.append(connect(100)))
            sim.run(until=connections * 0.01 + 30.0)
        _require(
            len(senders) == connections and all(sender.completed for sender in senders),
            "every mptcp connection completed",
        )
        return elapsed[0] / connections * 1e6

    return {
        "mptcp.segment_us": _median(stream),
        "mptcp.conn_setup_us": _median(setups),
    }


# ----------------------------------------------------------------------
# core — the paper's own layer
# ----------------------------------------------------------------------
def _codec_mix():
    from repro.core import commands, events
    from repro.net.addressing import FourTuple, ip

    path = FourTuple(ip("10.0.0.1"), 40000, ip("10.0.1.1"), 80)
    address = ip("10.0.2.1")
    event_mix = [
        events.ConnCreatedEvent(1.0, 7, path, 1, True),
        events.ConnEstablishedEvent(1.0, 7, path),
        events.ConnClosedEvent(1.0, 7),
        events.SubflowEstablishedEvent(1.0, 7, 2, path, False),
        events.SubflowClosedEvent(1.0, 7, 2, path, 104),
        events.TimeoutEvent(1.0, 7, 2, 0.8, 3),
        events.AddAddrEvent(1.0, 7, 1, address, 80),
        events.RemAddrEvent(1.0, 7, 1),
        events.NewLocalAddrEvent(1.0, address, "wlan0"),
        events.DelLocalAddrEvent(1.0, address, "wlan0"),
    ]
    command_mix = [
        commands.CreateSubflowCommand(1, 7, address, 0, ip("10.0.1.1"), 80, False),
        commands.RemoveSubflowCommand(2, 7, 2, True),
        commands.GetConnInfoCommand(3, 7),
        commands.GetSubflowInfoCommand(4, 7, 2),
        commands.ListSubflowsCommand(5, 7),
        commands.SetBackupCommand(6, 7, 2, True),
    ]
    reply_mix = [
        commands.CommandReply(1, commands.ReplyStatus.OK, {"subflow_id": 2, "local_port": 40001}),
        commands.CommandReply(2, commands.ReplyStatus.OK),
        commands.CommandReply(3, commands.ReplyStatus.UNKNOWN_CONNECTION),
    ]
    return event_mix, command_mix, reply_mix


def core_metrics(scale: float, seed: int) -> dict[str, float]:
    from repro.core import codec
    from repro.core.events import EventType
    from repro.core.library import PathManagerLibrary
    from repro.core.netlink import NetlinkChannel
    from repro.core.netlink_pm import NetlinkPathManager
    from repro.net import Host
    from repro.sim.engine import Simulator
    from repro.workloads import Harness, HarnessSpec

    event_mix, command_mix, reply_mix = _codec_mix()
    encoders = (
        [(codec.encode_event, message) for message in event_mix]
        + [(codec.encode_command, message) for message in command_mix]
        + [(codec.encode_reply, message) for message in reply_mix]
    )
    decoders = (
        [(codec.decode_event, codec.encode_event(message)) for message in event_mix]
        + [(codec.decode_command, codec.encode_command(message)) for message in command_mix]
        + [(codec.decode_reply, codec.encode_reply(message)) for message in reply_mix]
    )
    rounds = _count(1_500, scale)

    def through(calls) -> float:
        with _stopwatch() as elapsed:
            for _ in range(rounds):
                for function, argument in calls:
                    function(argument)
        return elapsed[0] / (rounds * len(calls)) * 1e6

    trips = _count(5_000, scale)

    def round_trip() -> float:
        # event → library callback → command → NetlinkPathManager → reply;
        # with no stack attached the kernel side answers REJECTED, which
        # costs the same crossings as a real answer.
        sim = Simulator(seed=1)
        channel = NetlinkChannel(sim)
        kernel = NetlinkPathManager(channel)
        library = PathManagerLibrary(channel)
        iface = Host(sim, "h").add_interface("wlan0", "10.0.2.1")
        replies = []
        library.register(
            EventType.NEW_LOCAL_ADDR,
            lambda event: library.get_conn_info(7, replies.append),
        )
        with _stopwatch() as elapsed:
            for _ in range(trips):
                kernel.on_local_address_up(iface)
            sim.run()
        _require(len(replies) == trips, "every event got its reply")
        return elapsed[0] / trips * 1e6

    def join_delay(controller: str) -> float:
        run = Harness().run(
            HarnessSpec(
                workload="http", scenario="lan", controller=controller, seed=seed,
                horizon=12.0, params={"request_count": 20, "object_size": 20_000},
            )
        )
        delays = run.probe("trace").syn_join_delays()
        return sum(delays) / len(delays)

    return {
        "core.encode_us": _median(lambda: through(encoders)),
        "core.decode_us": _median(lambda: through(decoders)),
        "core.roundtrip_us": _median(round_trip),
        # Fig. 3's quantity, in simulated time: bit-identical under any
        # speed-only change.
        "core.pm_delay_sim_us": (
            join_delay("userspace_ndiffports") - join_delay("ndiffports")
        ) * 1e6,
    }


# ----------------------------------------------------------------------
# netem, workloads, faults — what a cell costs before and after its events
# ----------------------------------------------------------------------
def cell_fixed_metrics(scale: float, seed: int) -> dict[str, float]:
    from repro.faults.plan import FaultPlan
    from repro.sim.engine import Simulator
    from repro.workloads import SCENARIOS, Harness, HarnessSpec

    passes = _count(30, scale)

    def build_all() -> float:
        with _stopwatch() as elapsed:
            for _ in range(passes):
                for name in sorted(SCENARIOS):
                    SCENARIOS[name](Simulator(seed=1))
        return elapsed[0] / (passes * len(SCENARIOS)) * 1e3

    runs = _count(300, scale)
    empty = HarnessSpec(
        workload="bulk_transfer", scenario="dual_homed", controller="fullmesh",
        horizon=0.0, params={"transfer_bytes": 2000},
    )

    def assemble_collect() -> float:
        with _stopwatch() as elapsed:
            for _ in range(runs):
                Harness().run(empty)
        return elapsed[0] / runs * 1e3

    def probe_costs(connections: int, trace_probe: bool) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {}
        for _ in range(REPEATS):
            run = Harness().run(
                HarnessSpec(
                    workload="bulk_transfer", scenario="dual_homed", controller="fullmesh",
                    seed=seed, connections=connections, trace_probe=trace_probe,
                    params={"transfer_bytes": _count(200_000, scale) // connections},
                    measure_probe_overhead=True,
                )
            )
            for name, seconds in run.probe_timings.items():
                samples.setdefault(name, []).append(seconds * 1e3)
        return samples

    plans = _count(2_000, scale)
    targets = ["path0", "path1"]

    def plan_all() -> float:
        with _stopwatch() as elapsed:
            for index in range(plans):
                FaultPlan.generate(seed + index, targets=targets).validate(targets)
        return elapsed[0] / plans * 1e3

    single = probe_costs(connections=1, trace_probe=True)
    many = probe_costs(connections=100, trace_probe=False)
    metrics = {
        "netem.build_ms": _median(build_all),
        "workloads.fixed_ms": _median(assemble_collect),
        "faults.plan_ms": _median(plan_all),
        "workloads.probe_aggregate_ms": statistics.median(many["aggregate"]),
    }
    for name in ("trace", "goodput", "subflows", "app_latency"):
        metrics[f"workloads.probe_{name}_ms"] = statistics.median(single[name])
    return metrics


# ----------------------------------------------------------------------
# sweep, store, analysis — around the 64-cell `workloads` grid
# ----------------------------------------------------------------------
def fixed_and_per_event(seed: int, scale: float) -> tuple[float, float]:
    """Split cell wall time into ``fixed + per_event × events`` over real cells.

    ROADMAP's "ms/cell fixed + µs/event".  The slope is the least-squares
    slope over three bulk cells of growing size; the fixed cost is then the
    median over one tiny cell per workload × scenario of ``wall − slope ×
    events``.  (One joint fit would let the big cells' millisecond
    residuals swamp a sub-millisecond intercept.)  Returns ``(fixed_ms,
    us_per_event)``.
    """
    from repro.sweep import run_cell_with_telemetry

    def point(spec: dict) -> tuple[int, float]:
        telemetry = run_cell_with_telemetry(spec, seed)["telemetry"]
        return telemetry["sim_events"], telemetry["wall_time_s"]

    big = [
        point(bulk_cell(_count(size, scale))) for size in (1_000_000, 3_000_000, 4_000_000)
    ]
    mean_events = statistics.fmean(events for events, _ in big)
    mean_wall = statistics.fmean(wall for _, wall in big)
    slope = sum((events - mean_events) * (wall - mean_wall) for events, wall in big) / sum(
        (events - mean_events) ** 2 for events, _ in big
    )
    tiny = [point(spec.as_dict()) for spec in TinyCells().grid(seed, 1.0 / TINY_SEEDS).expand()]
    fixed = statistics.median(wall - slope * events for events, wall in tiny)
    return fixed * 1e3, slope * 1e6


def _cli_seconds(argv: list[str]) -> float:
    started = time.perf_counter()
    python_child(argv).check_returncode()
    return time.perf_counter() - started


def campaign_metrics(scale: float, seed: int, tmp: str) -> dict[str, float]:
    from repro.experiments.grids import named_grid
    from repro.store import CampaignStore, Manifest
    from repro.sweep import (
        execute_plan,
        format_campaign_report,
        merge_campaign,
        plan_campaign,
    )

    grid_name = campaign_grid_name(scale)
    grid = named_grid(grid_name, campaign_seed=seed)
    plan = plan_campaign(grid)
    state = execute_plan(plan)
    campaign = merge_campaign(plan, state)
    entries = [
        {"spec": cell.spec.as_dict(), "campaign_seed": seed, "result": cell.result}
        for cell in campaign.cells
    ]
    cells = plan.cell_count
    rounds = _count(20, scale)

    def per_round(call: Callable[[], object], unit: float, per: int = 1) -> float:
        def driver() -> float:
            with _stopwatch() as elapsed:
                for _ in range(rounds):
                    call()
            return elapsed[0] / (rounds * per) * unit

        return _median(driver)

    def hash_all() -> None:
        for spec in plan.specs:
            spec.config_hash(seed)

    store_root = os.path.join(tmp, "layer-store")
    store = CampaignStore(store_root)
    manifest = Manifest(
        campaign_id=plan.campaign_id, name=grid.name, campaign_seed=seed,
        cells=plan.hashes, completed=plan.hashes, complete=True, grid=grid.as_dict(),
    )

    def put_all() -> float:
        shutil.rmtree(store_root, ignore_errors=True)
        with _stopwatch() as elapsed:
            for config_hash, entry in zip(plan.hashes, entries):
                store.put_cell(config_hash, entry)
        return elapsed[0] / cells * 1e6

    def get_all() -> None:
        for config_hash in plan.hashes:
            store.get_cell(config_hash)

    metrics = {
        "sweep.plan_ms": per_round(lambda: plan_campaign(grid), 1e3),
        "sweep.hash_us": per_round(hash_all, 1e6, per=cells),
        "sweep.merge_ms": per_round(lambda: merge_campaign(plan, state), 1e3),
        "sweep.canonical_json_ms": per_round(campaign.to_canonical_json, 1e3),
        "analysis.report_ms": per_round(lambda: format_campaign_report(campaign), 1e3),
        # Durability as shipped: every put and commit fsyncs file and directory.
        "store.put_us": _median(put_all),
        "store.get_us": per_round(get_all, 1e6, per=cells),
        "store.commit_manifest_ms": per_round(lambda: store.commit_manifest(manifest), 1e3),
        "store.verify_ms": per_round(store.verify_objects, 1e3),
    }
    shutil.rmtree(store_root, ignore_errors=True)

    fixed_ms, us_per_event = fixed_and_per_event(seed, scale)
    metrics["sweep.cell_fixed_ms"] = fixed_ms
    metrics["sweep.cell_us_per_event"] = us_per_event

    # Whole-process phases, interpreter start included (the scaling table).
    sweep = ["-m", "repro.experiments.runner", "sweep", "--grid", grid_name, "--seed", str(seed)]
    repeats = _process_repeats(scale, 2)

    def phase_seconds(phase: str) -> float:
        part = StorePhase(phase)
        part.prepare(seed, tmp, Tracer(), scale)
        part.prefill()

        def once() -> float:
            store = part.fixture()
            started = time.perf_counter()
            output = part.work(store)
            elapsed = time.perf_counter() - started
            _require(not part.judge(output).problems, f"the {phase} phase passed its checks")
            part.release(store)
            return elapsed

        return _median(once, repeats)

    serial = _median(lambda: _cli_seconds(sweep), repeats)
    for phase in StorePhase.PHASES:
        metrics[f"store.{phase}_s"] = phase_seconds(phase)
    metrics["sweep.pool2_speedup"] = serial / _median(
        lambda: _cli_seconds(sweep + ["--workers", "2"]), repeats
    )
    metrics["sweep.subproc2_speedup"] = serial / metrics["store.subproc2_s"]
    metrics["store.cold_overhead_share"] = (metrics["store.cold_s"] - serial) / serial
    return metrics


# ----------------------------------------------------------------------
# experiments, obs
# ----------------------------------------------------------------------
def process_metrics(scale: float, seed: int) -> dict[str, float]:
    from repro.sweep import run_cell

    repeats = _process_repeats(scale, REPEATS)
    floor = _median(lambda: _cli_seconds(["-c", "pass"]), repeats)
    imported = _median(lambda: _cli_seconds(["-c", "import repro.experiments.runner"]), repeats)

    def cell_seconds(extra: dict) -> float:
        started = time.perf_counter()
        run_cell(bulk_cell(_count(3_000_000, scale), **extra), seed)
        return time.perf_counter() - started

    plain = _median(lambda: cell_seconds({}))
    logged = _median(lambda: cell_seconds({"event_log": True}))
    return {
        "experiments.interp_s": floor,
        "experiments.import_s": imported - floor,
        "obs.eventlog_overhead_share": (logged - plain) / plain,
    }


def run_all(scale: float, seed: int, tmp: str) -> dict[str, float]:
    """Every workload-independent per-layer metric, by declared name."""
    metrics: dict[str, float] = {}
    metrics.update(sim_metrics(scale))
    metrics.update(net_metrics(scale))
    metrics.update(tcp_metrics(scale))
    metrics.update(mptcp_metrics(scale))
    metrics.update(core_metrics(scale, seed))
    metrics.update(cell_fixed_metrics(scale, seed))
    metrics.update(campaign_metrics(scale, seed, tmp))
    metrics.update(process_metrics(scale, seed))
    return metrics
