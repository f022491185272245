"""Figure 2b — smarter streaming: CDF of 64 KB block completion times.

The streaming application writes one 64 KB block per second over a
connection whose two available paths are 5 Mbps / 10 ms.  With the default
full-mesh path manager and loss on the initial path, blocks regularly miss
their one-second deadline and the delay CDF grows a long tail as the loss
rate increases.  The Smart Stream controller (§4.3) keeps the CDF close to
the loss-free case even at 10-40 % loss: it opens the second path as soon
as a block makes insufficient progress and closes any subflow whose RTO
exceeds one second.

Each run is a cell of the ``fig2b`` grid — the streaming workload on the
dual-homed scenario, whose ``loss_percent`` keyword sets the loss of the
initial path, under the ``fullmesh`` path manager or the
``smart_streaming`` controller — at its own simulator seed, loss rate and
block count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.cdf import Cdf
from repro.analysis.report import format_cdf_table
from repro.experiments.grids import named_grid
from repro.workloads import Harness, HarnessSpec


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
    params = named_grid("fig2b").params
    params["block_count"] = block_count
    #: One block per interval, which is also each block's deadline.
    deadline = params["interval"]
    runs = [(f"fullmesh {loss:.0f}% loss", loss, "fullmesh") for loss in loss_percents]
    if include_smart_sweep:
        runs += [(f"smart stream {loss:.0f}% loss", loss, "smart_streaming")
                 for loss in loss_percents]
    else:
        runs.append(("smart stream", smart_loss_percent, "smart_streaming"))

    cdfs: dict[str, Cdf] = {}
    late: dict[str, int] = {}
    for label, loss, controller in runs:
        delays: list[float] = []
        late[label] = 0
        for repetition in range(repetitions):
            run = Harness().run(
                HarnessSpec(
                    workload="streaming",
                    scenario="dual_homed",
                    controller=controller,
                    seed=seed + repetition * 101,
                    # Leave generous drain time so every block (even badly
                    # delayed ones) gets delivered and measured.
                    horizon=block_count * deadline + 30.0,
                    params={**params, "loss_percent": [loss, 0.0]},
                    probes=(),
                )
            )
            sink = run.server_apps[0]
            delays.extend(sink.completion_times())
            late[label] += sink.late_blocks(deadline)
        cdfs[label] = Cdf(delays, label=label)

    return Fig2bResult(
        title="Figure 2b - CDF of 64 KB block completion time",
        cdfs=cdfs,
        late_blocks=late,
        block_count=block_count * repetitions,
        deadline=deadline,
    )
