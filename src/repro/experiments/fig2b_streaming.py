"""Figure 2b — smarter streaming: CDF of 64 KB block completion times.

The streaming application writes one 64 KB block per second over a
connection whose two available paths are 5 Mbps / 10 ms.  With the default
full-mesh path manager and loss on the initial path, blocks regularly miss
their one-second deadline and the delay CDF grows a long tail as the loss
rate increases.  The Smart Stream controller (§4.3) keeps the CDF close to
the loss-free case even at 10-40 % loss: it opens the second path as soon
as a block makes insufficient progress and closes any subflow whose RTO
exceeds one second.

Each run is a preset over the unified workload harness: the streaming
workload on the dual-homed scenario with either the full-mesh path manager
or the smart streaming controller as the client stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.cdf import Cdf
from repro.analysis.report import format_cdf_table
from repro.apps.streaming import StreamingSinkApp
from repro.core.controllers import SmartStreamingController
from repro.core.manager import SmappManager
from repro.netem.scenarios import build_dual_homed
from repro.workloads import ClientSetup, Harness, HarnessSpec

SERVER_PORT = 6001
BLOCK_BYTES = 64 * 1024
#: One block per second, which is also each block's deadline.
BLOCK_INTERVAL = 1.0


@dataclass
class Fig2bResult:
    """CDFs of block completion time per configuration."""

    title: str
    cdfs: dict[str, Cdf]
    late_blocks: dict[str, int]
    block_count: int
    deadline: float

    def format_report(self) -> str:
        """Text rendering of the per-configuration CDFs (paper Figure 2b)."""
        lines = [self.title, format_cdf_table(self.cdfs, unit="s")]
        lines.append(
            "late blocks (> deadline of %.1fs, out of %d): %s"
            % (
                self.deadline,
                self.block_count,
                ", ".join(f"{label}={count}" for label, count in self.late_blocks.items()),
            )
        )
        lines.append(
            "expectation: full-mesh tails grow with the loss rate; the smart stream curve stays "
            "close to the low-loss curves"
        )
        return "\n".join(lines)


def _smart_streaming_client(ctx) -> ClientSetup:
    """Client stack preset: SMAPP manager with the smart streaming controller."""
    manager = SmappManager(ctx.sim, ctx.scenario.client)
    controller = manager.attach_controller(
        SmartStreamingController,
        secondary_local_address=ctx.scenario.client_addresses[1],
        secondary_remote_address=ctx.scenario.server_addresses[1],
        secondary_remote_port=SERVER_PORT,
        block_interval=BLOCK_INTERVAL,
        progress_threshold=BLOCK_BYTES // 2,
        rto_limit=1.0,
    )
    return ClientSetup(manager.stack, manager=manager, controller=controller)


def _run_stream(
    seed: int,
    loss_percent: float,
    smart: bool,
    block_count: int,
) -> StreamingSinkApp:
    """One streaming run; returns the sink with its per-block records."""
    run = Harness().run(
        HarnessSpec(
            workload="streaming",
            scenario=lambda sim: build_dual_homed(sim, loss_percent=(loss_percent, 0.0)),
            controller=_smart_streaming_client if smart else "fullmesh",
            seed=seed,
            # Leave generous drain time so every block (even badly delayed
            # ones) gets delivered and measured.
            horizon=block_count * BLOCK_INTERVAL + 30.0,
            server_port=SERVER_PORT,
            params={
                "block_bytes": BLOCK_BYTES,
                "interval": BLOCK_INTERVAL,
                "block_count": block_count,
                "close_when_done": True,
            },
            probes=(),
        )
    )
    if run.server_apps:
        return run.server_apps[0]
    return StreamingSinkApp(block_bytes=BLOCK_BYTES, interval=BLOCK_INTERVAL)


def run_fig2b(
    seed: int = 1,
    loss_percents: Sequence[float] = (10.0, 20.0, 30.0, 40.0),
    smart_loss_percent: float = 30.0,
    block_count: int = 40,
    repetitions: int = 3,
    include_smart_sweep: bool = False,
) -> Fig2bResult:
    """Run the streaming experiment (Figure 2b).

    Block delays are aggregated over ``repetitions`` independent runs per
    configuration: whether the scheduler ever parks a block on the lossy
    subflow while its RTO is backed off is a rare random event, so a single
    run per loss rate would be very noisy.  ``include_smart_sweep``
    additionally runs the smart controller at every loss rate (the paper
    notes the curves are nearly identical in the 10-40 % range; the sweep
    lets the benchmark verify that claim).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    cdfs: dict[str, Cdf] = {}
    late: dict[str, int] = {}

    def collect(loss: float, smart: bool) -> tuple[list[float], int]:
        delays: list[float] = []
        late_count = 0
        for repetition in range(repetitions):
            sink = _run_stream(
                seed=seed + repetition * 101,
                loss_percent=loss,
                smart=smart,
                block_count=block_count,
            )
            delays.extend(sink.completion_times())
            late_count += sink.late_blocks(BLOCK_INTERVAL)
        return delays, late_count

    for loss in loss_percents:
        label = f"fullmesh {loss:.0f}% loss"
        delays, late_count = collect(loss, smart=False)
        cdfs[label] = Cdf(delays, label=label)
        late[label] = late_count

    smart_losses = list(loss_percents) if include_smart_sweep else [smart_loss_percent]
    for loss in smart_losses:
        label = f"smart stream {loss:.0f}% loss" if include_smart_sweep else "smart stream"
        delays, late_count = collect(loss, smart=True)
        cdfs[label] = Cdf(delays, label=label)
        late[label] = late_count

    return Fig2bResult(
        title="Figure 2b - CDF of 64 KB block completion time",
        cdfs=cdfs,
        late_blocks=late,
        block_count=block_count * repetitions,
        deadline=BLOCK_INTERVAL,
    )
