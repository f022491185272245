"""The paper's qualitative claims, one test per figure.

Each test regenerates a scaled-down figure, prints its report (``pytest -s``
shows it) and asserts the shape the paper reports.  Nothing here is timed:
speed is measured by ``python -m bench`` only.
"""

import pytest

from repro.apps.bulk import BulkReceiverApp, BulkSenderApp
from repro.experiments.fig2a_backup import run_fig2a
from repro.experiments.fig2b_streaming import run_fig2b
from repro.experiments.fig3_pm_delay import run_fig3
from repro.experiments.longlived import run_longlived
from repro.mptcp.config import MptcpConfig
from repro.mptcp.path_manager import FullMeshPathManager
from repro.mptcp.stack import MptcpStack
from repro.netem.scenarios import build_dual_homed
from repro.sim.engine import Simulator

SERVER_PORT = 4100
TRANSFER = 3_000_000


def test_fig2a_smart_backup_handover():
    """Figure 2a: the master subflow stalls once the primary path becomes
    lossy, the controller switches when the RTO crosses its threshold, and
    the backup subflow carries the rest of the transfer."""
    result = run_fig2a(seed=1)
    print()
    print(result.format_report())

    # The controller must have performed exactly one break-before-make switch,
    # after the loss started but within a couple of seconds of it.
    assert result.switch_time is not None
    assert result.loss_start < result.switch_time < result.loss_start + 3.0

    # Before the switch only the master carries data; after it the backup does.
    assert result.bytes_on_primary > 0
    assert result.bytes_on_backup > 0
    master_at_end = result.trace.highest_seq_before(result.duration, result.primary)
    backup_at_end = result.trace.highest_seq_before(result.duration, result.backup)
    assert backup_at_end > master_at_end

    # The master stalls after the loss starts: its progress in the second
    # half of the run is marginal compared to the backup's.
    master_at_switch = result.trace.highest_seq_before(result.switch_time, result.primary)
    assert master_at_end - master_at_switch < 0.2 * backup_at_end


def test_fig2b_streaming_block_delays():
    """Figure 2b: the default full-mesh path manager develops a block-delay
    tail that grows with the loss rate, while the Smart Stream controller
    keeps almost every block within its one-second deadline."""
    result = run_fig2b(seed=1, block_count=25, repetitions=2, loss_percents=(10.0, 30.0))
    print()
    print(result.format_report())

    low_loss = result.cdfs["fullmesh 10% loss"]
    high_loss = result.cdfs["fullmesh 30% loss"]
    smart = result.cdfs["smart stream"]

    # The tail grows with the loss rate for the default path manager.
    assert high_loss.percentile(0.95) > low_loss.percentile(0.95)
    assert high_loss.mean > low_loss.mean

    # The smart controller keeps the delays close to the low-loss case even
    # though it runs at the high loss rate.
    assert smart.percentile(0.90) < 1.0
    assert smart.mean < high_loss.mean
    assert result.late_blocks["smart stream"] <= result.late_blocks["fullmesh 30% loss"]


def test_fig2c_refresh_vs_ndiffports(fig2c):
    """Figure 2c: over the four-path ECMP topology the Refresh controller
    ends up using (almost) all paths and beats ndiffports, whose completion
    times spread out according to how many distinct paths its five random
    subflows happened to hash onto.  Ten cells per controller (the
    ``--runs`` default), from the session's shared ``fig2c`` campaign."""
    result = fig2c
    print()
    print(result.format_report())

    assert len(result.cdf_refresh) == 10
    assert len(result.cdf_ndiffports) == 10

    # The refresh controller wins on average and at the median.
    assert result.cdf_refresh.mean < result.cdf_ndiffports.mean
    assert result.cdf_refresh.median <= result.cdf_ndiffports.median

    # The refresh controller converges onto more distinct paths than
    # ndiffports does on average.
    refresh_paths = [cell["paths_used"] for cell in result.refresh]
    ndiff_paths = [cell["paths_used"] for cell in result.ndiffports]
    assert len(refresh_paths) == len(ndiff_paths) == 10
    assert sum(refresh_paths) / len(refresh_paths) >= sum(ndiff_paths) / len(ndiff_paths)
    # At this reduced scale the transfer only spans a couple of refresh
    # rounds; full-length runs converge to all four paths.
    assert max(refresh_paths) >= 3


@pytest.fixture(scope="module")
def fig3():
    """One 60-request ``fig3`` campaign, shared by the two Figure 3 tests."""
    return run_fig3(seed=1, request_count=60)


def test_fig3_pm_overhead(fig3):
    """Figure 3: the SYN -> MP_JOIN delay of the in-kernel and the userspace
    ndiffports cells both sit well below a millisecond and the userspace
    variant pays a small constant extra.  The paper reports about 23
    microseconds on average; the registered model (two log-normal Netlink
    crossings of mean 8 us, 1.5 us each of library and command processing,
    against a constant 2 us in the kernel) expects 17 us and measures
    16.1 us over these 60 requests — pinned exactly below, because it is
    simulated time and no speed change may move it."""
    result = fig3
    print()
    print(result.format_report())

    assert result.kernel["mp_join_samples"] >= 50
    assert result.userspace["mp_join_samples"] >= 50

    # Both variants stay sub-millisecond on the gigabit LAN.
    assert result.kernel["join_delay_us_max"] < 1000
    assert result.userspace["join_delay_us_max"] < 1000

    # The userspace path manager is slower, but only by tens of microseconds.
    assert result.mean_overhead > 5e-6
    assert result.mean_overhead < 60e-6
    assert result.userspace["join_delay_us_p50"] > result.kernel["join_delay_us_p50"]

    # The exact quantity (ROADMAP 1a calibrates it to the paper's CDF, which
    # moves these three numbers on purpose and nothing else may).
    assert result.mean_overhead == 1.608357782554968e-05
    assert result.kernel["join_delay_us_p50"] == 103.93599999998504
    assert result.userspace["join_delay_us_p50"] == 119.43385258438715


def test_fig3_userspace_pm_reproduces_the_kernel_pm(fig3):
    """The paper's central claim on Figure 3's stored cell pair: the
    userspace path manager does what the in-kernel one does — the same
    connections, requests, bytes on the wire and joins, and no fallback —
    and differs only by its control-plane delay."""
    kernel, userspace = fig3.kernel, fig3.userspace
    for metric in ("connections_initiated", "app_samples", "bytes_delivered",
                   "trace_data_bytes", "mp_join_samples"):
        assert kernel[metric] == userspace[metric], metric
    assert kernel["mp_join_samples"] == 60
    assert not [key for key in (*kernel, *userspace) if key.startswith("fallback_")]
    assert userspace["join_delay_us_p50"] > kernel["join_delay_us_p50"]
    assert 0 < fig3.mean_overhead < 60e-6


def test_longlived_nat_survival():
    """§4.1 (no paper figure): an aggressive NAT keeps expiring the idle
    subflow's state; the userspace full-mesh controller repairs the failed
    subflows so that every application message is still delivered, without
    keep-alive traffic."""
    result = run_longlived(seed=1, duration=700.0, nat_timeout=60.0, message_interval=150.0)
    print()
    print(result.format_report())

    # The NAT really did expire state during the run ...
    assert result.nat_expired_flows >= 1
    # ... which killed at least one subflow ...
    assert result.subflow_failures >= 1
    # ... and the controller repaired it.
    assert result.reestablishments >= 1
    # The application never noticed: every message was delivered.
    assert result.messages_sent >= 4
    assert result.all_messages_delivered


def run_with_scheduler(scheduler: str) -> float:
    sim = Simulator(seed=9)
    scenario = build_dual_homed(sim, rate_mbps=8.0, delay_ms=10.0)
    receivers = []
    config = MptcpConfig(scheduler=scheduler)
    server_stack = MptcpStack(sim, scenario.server, config=config)
    server_stack.listen(SERVER_PORT, lambda: receivers.append(BulkReceiverApp()) or receivers[-1])
    client_stack = MptcpStack(sim, scenario.client, config=config, path_manager=FullMeshPathManager())
    sender = BulkSenderApp(TRANSFER)
    client_stack.connect(scenario.server_addresses[0], SERVER_PORT, listener=sender,
                         local_address=scenario.client_addresses[0])
    sim.run(until=60.0)
    assert sender.completed
    return sender.completion_time


def test_scheduler_ablation():
    """Ablation: the paper keeps the scheduler in the kernel and uses the
    Linux default (lowest RTT).  The three schedulers shipped here, on the
    dual-homed topology with asymmetric path delays, document that the
    controller results do not hinge on an exotic scheduler: lowest-RTT and
    round-robin complete a bulk transfer in similar time (both use both
    paths), while the choice mostly shifts which path carries more bytes."""
    results = {name: run_with_scheduler(name) for name in ("lowest_rtt", "round_robin", "redundant")}
    print()
    for name, completion in results.items():
        print(f"  {name:<12} {completion:.3f} s for {TRANSFER} bytes")

    # Every scheduler completes the transfer in a reasonable time (the
    # transfer is short, so slow-start transients dominate and none of them
    # reaches the 2x aggregate of a long flow), and the default lowest-RTT
    # scheduler is competitive with the alternatives.
    assert all(value < 6.0 for value in results.values())
    fastest = min(results.values())
    assert results["lowest_rtt"] <= 1.5 * fastest
