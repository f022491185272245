"""§4.1 — smarter long-lived connections (no figure in the paper).

A mostly idle connection crosses a NAT whose idle timeout is far below the
gap between application messages.  Without help, the subflow over the NAT
path silently dies whenever the state expires; the userspace full-mesh
controller reacts to the ``sub_closed`` events (and to interface up/down
events) and re-establishes the failed subflows with failure-specific
back-off timers, so the application's messages keep flowing without any
per-path keep-alive traffic.

The run is a preset over the unified workload harness: the long-lived
workload on the NAT scenario under the userspace full-mesh controller,
with an interface-flap hook exercising the address up/down reactions: the
secondary interface goes down at ``FLAP_AT`` (400 s) and comes back 60 s
later.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.netem.scenarios import build_natted
from repro.workloads import Harness, HarnessSpec

SERVER_PORT = 9001
FLAP_AT = 400.0


@dataclass
class LongLivedResult:
    """Outcome of the long-lived-connection experiment."""

    title: str
    duration: float
    nat_timeout: float
    messages_sent: int
    messages_delivered: int
    max_delivery_time: float
    subflow_failures: int
    reestablishments: int
    nat_expired_flows: int
    interface_flaps: int

    @property
    def all_messages_delivered(self) -> bool:
        """True when every application message reached the peer."""
        return self.messages_sent > 0 and self.messages_delivered == self.messages_sent

    def format_report(self) -> str:
        """Text summary of the §4.1 behaviour."""
        rows = [
            ["duration", f"{self.duration:.0f} s"],
            ["NAT idle timeout", f"{self.nat_timeout:.0f} s"],
            ["messages sent / delivered", f"{self.messages_sent} / {self.messages_delivered}"],
            ["max message delivery time", f"{self.max_delivery_time:.3f} s"],
            ["subflow failures observed", str(self.subflow_failures)],
            ["subflows re-established", str(self.reestablishments)],
            ["NAT state expiries", str(self.nat_expired_flows)],
            ["interface down/up cycles", str(self.interface_flaps)],
        ]
        return "\n".join([
            self.title,
            format_table(["metric", "value"], rows),
            "expectation: every message is delivered although the NAT keeps expiring the idle "
            "subflow's state; the controller repairs failed subflows instead of keep-alives",
        ])


def _schedule_interface_flap(run) -> None:
    """Hook: take the secondary interface down once, then bring it back.

    Exercises the new_local_addr / del_local_addr reaction of the
    controller on top of the NAT expiries.
    """
    iface = run.scenario.client.interface("if1")
    run.sim.schedule(FLAP_AT, iface.set_down)
    run.sim.schedule(FLAP_AT + 60.0, iface.set_up)


def run_longlived(
    seed: int = 1,
    duration: float = 900.0,
    nat_timeout: float = 60.0,
    message_interval: float = 150.0,
) -> LongLivedResult:
    """Run the long-lived-connection experiment."""
    flaps = 1 if FLAP_AT < duration else 0
    hooks = (_schedule_interface_flap,) if flaps else ()

    run = Harness().run(
        HarnessSpec(
            workload="longlived",
            scenario=lambda sim: build_natted(
                sim, nat_idle_timeout=nat_timeout, nat_sends_rst=True
            ),
            controller="userspace_fullmesh",
            seed=seed,
            horizon=duration,
            server_port=SERVER_PORT,
            params={"message_bytes": 400, "message_interval": message_interval},
            probes=(),
            hooks=hooks,
        )
    )

    controller = run.client.controller
    failures = 0
    for view in controller.state.connections.values():
        failures += sum(1 for flow in view.subflows.values() if flow.closed)

    app = run.driver
    delivery_times = app.delivery_times()
    return LongLivedResult(
        title="Section 4.1 - long-lived connection across an aggressive NAT",
        duration=duration,
        nat_timeout=nat_timeout,
        messages_sent=len(app.messages),
        messages_delivered=app.delivered_messages,
        max_delivery_time=max(delivery_times) if delivery_times else 0.0,
        subflow_failures=failures,
        reestablishments=controller.reestablishments,
        nat_expired_flows=run.scenario.middlebox.expired_flows,
        interface_flaps=flaps,
    )
