"""Figure 2a — smarter backup: data-sequence progress across the handover.

A bulk transfer of 8 MB starts on the primary path of a 2 Mbps, 10 ms
dual-homed topology; after ``LOSS_START`` (1 s) the primary path becomes
very lossy (30 % in the paper).  The smart backup controller watches the
``timeout`` events and, once the reported RTO exceeds its threshold
(1 s), closes the primary subflow and creates a subflow over the backup
path.  The figure plots the data sequence numbers
of the segments sent over time, coloured by subflow; the reproduction
returns exactly that series plus the controller's switch time.

The run is a preset over the unified workload harness: the bulk workload
composed with a dual-homed scenario, a smart-backup client stack, a trace
probe and a scheduled loss-onset hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.analysis.report import format_table
from repro.analysis.trace import SubflowSequenceTrace
from repro.mptcp.subflow import SubflowOrigin
from repro.net.addressing import FourTuple
from repro.netem.scenarios import build_dual_homed
from repro.workloads import Harness, HarnessSpec, TraceProbe

SERVER_PORT = 5001

#: When the primary path turns lossy, and how lossy it becomes.
LOSS_START = 1.0
LOSS_PERCENT = 30.0

#: The §4.2 topology at 2 Mbps per path.
_build_scenario = partial(build_dual_homed, rate_mbps=2.0)


@dataclass
class Fig2aResult:
    """Everything needed to redraw Figure 2a."""

    title: str
    trace: SubflowSequenceTrace
    primary: Optional[FourTuple]
    backup: Optional[FourTuple]
    loss_start: float
    switch_time: Optional[float]
    bytes_on_primary: int
    bytes_on_backup: int
    duration: float

    def format_report(self) -> str:
        """Text rendering of the sequence-progress series (paper Figure 2a)."""
        rows = []
        time = 0.0
        while time <= self.duration + 1e-9:
            primary_seq = self.trace.highest_seq_before(time, self.primary) if self.primary else 0
            backup_seq = self.trace.highest_seq_before(time, self.backup) if self.backup else 0
            rows.append(
                [
                    f"{time:.1f}",
                    f"{primary_seq / 1e5:.2f}",
                    f"{backup_seq / 1e5:.2f}",
                ]
            )
            time += 0.5
        lines = [
            self.title,
            format_table(["time (s)", "master seq (1e5 B)", "backup seq (1e5 B)"], rows),
            f"loss on primary from t={self.loss_start:.1f}s; controller switch at "
            + (f"t={self.switch_time:.2f}s" if self.switch_time is not None else "never"),
            f"bytes sent on primary={self.bytes_on_primary}  backup={self.bytes_on_backup}",
        ]
        return "\n".join(lines)


def _schedule_loss(run) -> None:
    """Hook: the primary path turns lossy at ``LOSS_START``."""
    run.sim.schedule(
        LOSS_START, run.scenario.path_links[0].set_loss_rate, LOSS_PERCENT / 100.0
    )


def run_fig2a(seed: int = 1, duration: float = 5.0) -> Fig2aResult:
    """Run the smart-backup handover experiment (Figure 2a) with the
    controller's 1 s RTO threshold."""
    trace_probe = TraceProbe(tracer_name="capture")
    run = Harness().run(
        HarnessSpec(
            workload="bulk_transfer",
            scenario=_build_scenario,
            controller="smart_backup",
            seed=seed,
            horizon=duration,
            server_port=SERVER_PORT,
            params={"transfer_bytes": 8_000_000, "close_when_done": False},
            probes=(trace_probe,),
            hooks=(_schedule_loss,),
        )
    )

    trace = trace_probe.sequence_trace()
    primary_tuple = None
    backup_tuple = None
    bytes_primary = 0
    bytes_backup = 0
    for flow in run.connection.subflows:
        if flow.is_initial:
            primary_tuple = flow.four_tuple
            bytes_primary = flow.bytes_scheduled
        elif flow.origin is SubflowOrigin.CONTROLLER:
            backup_tuple = flow.four_tuple
            bytes_backup = flow.bytes_scheduled

    switch_time = run.client.controller.switch_times.get(run.connection.local_token)

    return Fig2aResult(
        title="Figure 2a - smart backup handover (data sequence progress per subflow)",
        trace=trace,
        primary=primary_tuple,
        backup=backup_tuple,
        loss_start=LOSS_START,
        switch_time=switch_time,
        bytes_on_primary=bytes_primary,
        bytes_on_backup=bytes_backup,
        duration=duration,
    )

