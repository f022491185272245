"""Figure 3 — userspace path-manager overhead.

The client issues consecutive HTTP GET requests for a 512 KB object over a
direct gigabit link.  Each request opens a fresh MPTCP connection, and the
path manager (in-kernel ndiffports vs. the userspace ndiffports controller)
opens a second subflow as soon as the connection is established.  The
metric is the delay between the SYN carrying MP_CAPABLE and the SYN
carrying MP_JOIN, measured from the packet trace — precisely what the
paper's Figure 3 plots.  The userspace variant pays two Netlink crossings
plus the controller's processing time, which showed up as ~23 µs of extra
delay on the paper's hardware (and stayed below 37 µs under CPU stress).

Each variant is a preset over the unified workload harness: the HTTP
workload on the LAN scenario with a latency-calibrated client stack and a
trace probe whose SYN-to-JOIN extraction yields the figure's data set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.analysis.cdf import Cdf
from repro.analysis.report import format_cdf_table
from repro.core.controllers import UserspaceNdiffportsController
from repro.core.manager import SmappManager
from repro.mptcp.path_manager import NdiffportsPathManager
from repro.mptcp.stack import MptcpStack
from repro.sim.latency import LogNormalLatency, ShiftedLatency
from repro.workloads import ClientSetup, Harness, HarnessSpec, TraceProbe

SERVER_PORT = 80


@dataclass
class Fig3Result:
    """CDFs of the MP_CAPABLE-SYN to MP_JOIN-SYN delay."""

    title: str
    cdf_kernel: Cdf
    cdf_userspace: Cdf
    requests: int
    stressed: bool
    notes: list[str] = field(default_factory=list)

    @property
    def mean_overhead(self) -> float:
        """Mean extra delay of the userspace path manager, in seconds."""
        return self.cdf_userspace.mean - self.cdf_kernel.mean

    @property
    def median_overhead(self) -> float:
        """Median extra delay of the userspace path manager, in seconds."""
        return self.cdf_userspace.median - self.cdf_kernel.median

    def format_report(self) -> str:
        """Text rendering of the two delay CDFs (paper Figure 3)."""
        lines = [
            self.title,
            format_cdf_table(
                {"kernel PM": self.cdf_kernel, "userspace PM": self.cdf_userspace},
                unit="ms",
                scale=1000.0,
            ),
            f"mean userspace overhead: {self.mean_overhead * 1e6:.1f} us "
            f"(median {self.median_overhead * 1e6:.1f} us) over {self.requests} requests"
            + (" [CPU stressed]" if self.stressed else ""),
        ]
        lines.extend(self.notes)
        return "\n".join(lines)


def _calibrated_client(ctx, userspace: bool, stressed: bool) -> ClientSetup:
    """Client stack preset with the paper's latency calibration.

    The in-kernel path manager reacts within a few microseconds; the
    userspace one pays one Netlink crossing per direction plus
    library/controller processing.  CPU stress adds scheduling delay to
    both (slightly more to the userspace process).
    """
    kernel_processing = LogNormalLatency(2.5e-6, sigma=0.35)
    crossing = LogNormalLatency(8e-6, sigma=0.4)
    library_processing = LogNormalLatency(2.5e-6, sigma=0.35)
    if stressed:
        kernel_processing = ShiftedLatency(LogNormalLatency(4e-6, sigma=0.6), 4e-6)
        crossing = ShiftedLatency(LogNormalLatency(10e-6, sigma=0.6), 4e-6)
        library_processing = ShiftedLatency(LogNormalLatency(4e-6, sigma=0.6), 4e-6)

    if userspace:
        manager = SmappManager(
            ctx.sim,
            ctx.scenario.client,
            kernel_to_user_latency=crossing,
            user_to_kernel_latency=crossing,
            library_processing=library_processing,
        )
        controller = manager.attach_controller(UserspaceNdiffportsController, subflow_count=2)
        return ClientSetup(manager.stack, manager=manager, controller=controller)
    return ClientSetup(
        MptcpStack(
            ctx.sim,
            ctx.scenario.client,
            config=ctx.config,
            path_manager=NdiffportsPathManager(subflow_count=2, processing_latency=kernel_processing),
        )
    )


def _run_variant(seed: int, userspace: bool, request_count: int, stressed: bool) -> list[float]:
    """Run one variant and return the measured SYN-to-JOIN delays."""
    trace_probe = TraceProbe(tracer_name="capture", links=["lan"])
    Harness().run(
        HarnessSpec(
            workload="http",
            scenario="lan",
            controller=partial(_calibrated_client, userspace=userspace, stressed=stressed),
            seed=seed,
            # 512 KB at 1 Gbps is ~4.5 ms per request; leave ample room.
            horizon=request_count * 0.1 + 10.0,
            server_port=SERVER_PORT,
            params={
                "request_count": request_count,
                "object_size": 512 * 1024,
                "request_size": 200,
                "think_time": 0.0,
            },
            probes=(trace_probe,),
        )
    )
    return trace_probe.syn_join_delays()


def run_fig3(seed: int = 1, request_count: int = 200, stressed: bool = False) -> Fig3Result:
    """Run the path-manager overhead experiment (Figure 3)."""
    kernel_delays = _run_variant(seed, False, request_count, stressed)
    user_delays = _run_variant(seed, True, request_count, stressed)
    return Fig3Result(
        title="Figure 3 - delay between the MP_CAPABLE SYN and the MP_JOIN SYN",
        cdf_kernel=Cdf(kernel_delays, label="kernel"),
        cdf_userspace=Cdf(user_delays, label="userspace"),
        requests=request_count,
        stressed=stressed,
        notes=[
            "expectation: both CDFs sit in the sub-millisecond range; the userspace curve is shifted "
            "right by a few tens of microseconds",
        ],
    )
