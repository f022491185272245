"""Figure 2a — smarter backup: data-sequence progress across the handover.

A bulk transfer of 8 MB starts on the primary path of a 2 Mbps, 10 ms
dual-homed topology; after 1 s the primary path becomes very lossy
(30 % in the paper).  The smart backup controller watches the
``timeout`` events and, once the reported RTO exceeds its threshold
(1 s), closes the primary subflow and creates a subflow over the backup
path.  The figure plots the data sequence numbers
of the segments sent over time, coloured by subflow; the reproduction
returns exactly that series plus the controller's switch time.

The run is the ``fig2a`` grid's one cell — the bulk workload on the
dual-homed scenario at 2 Mbps with the loss onset as its ``loss_from``
keyword, under the smart-backup controller — at simulator seed ``seed``,
with a trace probe whose capture the figure reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.report import format_table
from repro.analysis.trace import SubflowSequenceTrace
from repro.experiments.grids import named_grid
from repro.mptcp.subflow import SubflowOrigin
from repro.net.addressing import FourTuple
from repro.workloads import Harness, HarnessSpec, TraceProbe


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


def run_fig2a(seed: int = 1, duration: float = 5.0) -> Fig2aResult:
    """Run the smart-backup handover experiment (Figure 2a) with the
    controller's 1 s RTO threshold: the ``fig2a`` grid's cell at simulator
    seed ``seed`` for ``duration`` seconds."""
    grid = named_grid("fig2a")
    trace_probe = TraceProbe()
    run = Harness().run(
        HarnessSpec(
            workload=grid.experiments[0],
            scenario=grid.scenarios[0],
            controller=grid.controllers[0],
            seed=seed,
            horizon=duration,
            params=grid.params,
            probes=(trace_probe,),
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
        loss_start=grid.params["loss_from"],
        switch_time=switch_time,
        bytes_on_primary=bytes_primary,
        bytes_on_backup=bytes_backup,
        duration=duration,
    )

