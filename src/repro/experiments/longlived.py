"""§4.1 — smarter long-lived connections (no figure in the paper).

A mostly idle connection crosses a NAT whose idle timeout is far below the
gap between application messages.  Without help, the subflow over the NAT
path silently dies whenever the state expires; the userspace full-mesh
controller reacts to the ``sub_closed`` events (and to interface up/down
events) and re-establishes the failed subflows with failure-specific
back-off timers, so the application's messages keep flowing without any
per-path keep-alive traffic.

The run is the ``longlived`` named grid's one cell: the long-lived
workload on the NAT scenario under the userspace full-mesh controller.
The scenario's ``flap_at`` keyword also exercises the address up/down
reactions: the secondary interface goes down at 400 s and comes back 60 s
later.  This module runs that cell and formats what it stores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.experiments.grids import named_grid
from repro.sweep.engine import run_campaign


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


def run_longlived(
    seed: int = 1,
    duration: float = 900.0,
    nat_timeout: float = 60.0,
    message_interval: float = 150.0,
) -> LongLivedResult:
    """Run the ``longlived`` grid under campaign seed ``seed`` (§4.1).

    ``duration``, ``nat_timeout`` and ``message_interval`` override the
    grid's ``horizon``, ``nat_idle_timeout`` and ``message_interval``; at
    the defaults this is ``runner sweep --grid longlived``'s plan.  The one
    cell runs in this process.
    """
    grid = named_grid("longlived", seed)
    grid.params.update(
        horizon=float(duration),
        nat_idle_timeout=float(nat_timeout),
        message_interval=float(message_interval),
    )
    (cell,) = run_campaign(grid).cells
    metrics = cell.result
    return LongLivedResult(
        title="Section 4.1 - long-lived connection across an aggressive NAT",
        duration=duration,
        nat_timeout=nat_timeout,
        messages_sent=metrics["messages_sent"],
        messages_delivered=metrics["messages_delivered"],
        max_delivery_time=metrics["delivery_time_max"] or 0.0,
        subflow_failures=metrics["subflow_failures"],
        reestablishments=metrics["reestablishments"],
        nat_expired_flows=metrics["nat_expired_flows"],
        interface_flaps=1 if grid.params["flap_at"] < duration else 0,
    )
