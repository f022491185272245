"""The built-in workloads: bulk transfer, streaming, HTTP, long-lived.

Each class adapts one application pair from :mod:`repro.apps` to the
harness contract, so every paper workload is available to every scenario ×
controller × scheduler combination — as a figure preset and as a sweep
experiment alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.apps.bulk import BulkReceiverApp, BulkSenderApp
from repro.apps.http import HttpClientDriver, HttpServerApp
from repro.apps.longlived import LongLivedApp, LongLivedPeer
from repro.apps.streaming import StreamingSinkApp, StreamingSourceApp
from repro.mptcp.connection import ConnectionListener, MptcpConnection
from repro.mptcp.stack import MptcpStack
from repro.workloads.base import HarnessContext, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.harness import HarnessRun


class BulkTransferWorkload(Workload):
    """Fixed-size upload; the §4.4 file transfer."""

    name = "bulk_transfer"
    default_params = {"transfer_bytes": 200_000, "close_when_done": True}

    def server_app(self, ctx: HarnessContext) -> ConnectionListener:
        return BulkReceiverApp(expected_bytes=int(ctx.params["transfer_bytes"]))

    def start(
        self, ctx: HarnessContext, stack: MptcpStack
    ) -> tuple[BulkSenderApp, Optional[MptcpConnection]]:
        sender = BulkSenderApp(
            int(ctx.params["transfer_bytes"]),
            close_when_done=bool(ctx.params["close_when_done"]),
        )
        conn = stack.connect(
            ctx.scenario.server_addresses[0],
            ctx.server_port,
            listener=sender,
            local_address=ctx.scenario.client_addresses[0],
        )
        return sender, conn

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        # The cell-level completion time is the slowest transfer's duration;
        # it stays None until every connection started and finished.  At
        # connections=1 this is exactly run.driver.completion_time.
        started = [driver for driver in run.drivers if driver is not None]
        completions = [driver.completion_time for driver in started]
        completion = None
        if started and len(started) == len(run.drivers) and all(
            value is not None for value in completions
        ):
            completion = max(completions)
        return {
            "completion_time": completion,
            "bytes_delivered": self.delivered_bytes(run),
        }

    def delivered_bytes(self, run: "HarnessRun") -> int:
        return sum(receiver.received_bytes for receiver in run.server_apps)

    def driver_delivered_bytes(self, run: "HarnessRun", driver: Any) -> int:
        return driver.acked_bytes

    def driver_latencies(self, run: "HarnessRun", driver: Any) -> list[float]:
        completion = driver.completion_time
        return [completion] if completion is not None else []

    def driver_elapsed(self, run: "HarnessRun", driver: Any) -> float:
        completion = driver.completion_time
        return completion if completion is not None else run.spec.horizon


class StreamingWorkload(Workload):
    """Fixed-rate block streaming; the §4.3 workload behind Figure 2b."""

    name = "streaming"
    # The source paces blocks against a single global session clock and the
    # sink accessors assume one stream; the scale axis starts with the
    # workloads whose drivers are already independent.
    supports_connections = False
    default_params = {
        "block_bytes": 32 * 1024,
        "interval": 0.5,
        "block_count": 10,
        "close_when_done": True,
    }

    def server_app(self, ctx: HarnessContext) -> ConnectionListener:
        return StreamingSinkApp(
            block_bytes=int(ctx.params["block_bytes"]),
            interval=float(ctx.params["interval"]),
        )

    def start(
        self, ctx: HarnessContext, stack: MptcpStack
    ) -> tuple[StreamingSourceApp, Optional[MptcpConnection]]:
        source = StreamingSourceApp(
            block_bytes=int(ctx.params["block_bytes"]),
            interval=float(ctx.params["interval"]),
            block_count=int(ctx.params["block_count"]),
            close_when_done=bool(ctx.params["close_when_done"]),
        )
        conn = stack.connect(
            ctx.scenario.server_addresses[0],
            ctx.server_port,
            listener=source,
            local_address=ctx.scenario.client_addresses[0],
        )
        return source, conn

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        delays = self.app_latencies(run)
        sinks = run.server_apps
        interval = float(run.params["interval"])
        late = sinks[0].late_blocks(interval) if sinks else int(run.params["block_count"])
        return {
            "blocks_delivered": len(delays),
            "block_delay_mean": (sum(delays) / len(delays)) if delays else None,
            "block_delay_max": max(delays) if delays else None,
            "late_blocks": late,
        }

    def delivered_bytes(self, run: "HarnessRun") -> int:
        return sum(sink.received_bytes for sink in run.server_apps)

    def app_latencies(self, run: "HarnessRun") -> list[float]:
        return run.server_apps[0].completion_times() if run.server_apps else []


class HttpWorkload(Workload):
    """Sequential HTTP/1.0 GETs, one connection per request (§4.5)."""

    name = "http"
    default_params = {
        "request_count": 4,
        "object_size": 64 * 1024,
        "request_size": 200,
        "think_time": 0.0,
    }

    def server_app(self, ctx: HarnessContext) -> ConnectionListener:
        return HttpServerApp(object_size=int(ctx.params["object_size"]))

    def start(
        self, ctx: HarnessContext, stack: MptcpStack
    ) -> tuple[HttpClientDriver, Optional[MptcpConnection]]:
        driver = HttpClientDriver(
            stack,
            ctx.scenario.server_addresses[0],
            ctx.server_port,
            request_count=int(ctx.params["request_count"]),
            object_size=int(ctx.params["object_size"]),
            request_size=int(ctx.params["request_size"]),
            think_time=float(ctx.params["think_time"]),
        )
        driver.start()
        return driver, None

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        started_drivers = [driver for driver in run.drivers if driver is not None]
        times = [time for driver in started_drivers for time in driver.completion_times()]
        return {
            "requests_started": sum(len(driver.records) for driver in started_drivers),
            "requests_completed": sum(
                driver.completed_requests for driver in started_drivers
            ),
            "request_time_mean": (sum(times) / len(times)) if times else None,
            "request_time_max": max(times) if times else None,
            "bytes_delivered": self.delivered_bytes(run),
        }

    def delivered_bytes(self, run: "HarnessRun") -> int:
        return sum(
            driver.total_received_bytes for driver in run.drivers if driver is not None
        )

    def driver_delivered_bytes(self, run: "HarnessRun", driver: Any) -> int:
        return driver.total_received_bytes

    def driver_latencies(self, run: "HarnessRun", driver: Any) -> list[float]:
        return driver.completion_times()

    def driver_elapsed(self, run: "HarnessRun", driver: Any) -> float:
        last = driver.last_completion_at
        return last if last is not None else run.spec.horizon


class LongLivedWorkload(Workload):
    """Mostly idle connection exchanging small periodic messages (§4.1)."""

    name = "longlived"
    default_params = {"message_bytes": 400, "message_interval": 2.0}

    def server_app(self, ctx: HarnessContext) -> ConnectionListener:
        return LongLivedPeer(message_bytes=int(ctx.params["message_bytes"]))

    def start(
        self, ctx: HarnessContext, stack: MptcpStack
    ) -> tuple[LongLivedApp, Optional[MptcpConnection]]:
        app = LongLivedApp(
            message_bytes=int(ctx.params["message_bytes"]),
            message_interval=float(ctx.params["message_interval"]),
        )
        conn = stack.connect(
            ctx.scenario.server_addresses[0],
            ctx.server_port,
            listener=app,
            local_address=ctx.scenario.client_addresses[0],
        )
        return app, conn

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        delays = self.app_latencies(run)
        started_drivers = [driver for driver in run.drivers if driver is not None]
        return {
            "messages_sent": sum(len(driver.messages) for driver in started_drivers),
            "messages_delivered": sum(
                driver.delivered_messages for driver in started_drivers
            ),
            "delivery_time_mean": (sum(delays) / len(delays)) if delays else None,
            "delivery_time_max": max(delays) if delays else None,
        }

    def delivered_bytes(self, run: "HarnessRun") -> int:
        return sum(peer.received_bytes for peer in run.server_apps)

    def driver_delivered_bytes(self, run: "HarnessRun", driver: Any) -> int:
        return driver.delivered_messages * int(run.params["message_bytes"])

    def driver_latencies(self, run: "HarnessRun", driver: Any) -> list[float]:
        return driver.delivery_times()


#: The instances :data:`repro.workloads.registry.WORKLOADS` names.
BULK = BulkTransferWorkload()
STREAMING = StreamingWorkload()
HTTP = HttpWorkload()
LONGLIVED = LongLivedWorkload()
