"""Pluggable metric probes.

A probe is the measurement half of a harness run: it attaches to the
scenario before any traffic flows (e.g. installing a packet tracer) and
reduces the finished run to a flat metrics dict.  The same probes feed the
figure reports (which want the rich objects — sequence traces, raw delay
lists) and the sweep aggregation (which wants deterministic scalars), so
per-script ad-hoc extraction is gone: an experiment picks probes, it does
not re-implement them.
"""

from __future__ import annotations

import hashlib
from abc import ABC
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.analysis.trace import (
    SubflowSequenceTrace,
    extract_sequence_trace,
    syn_join_delays,
)
from repro.net.tracer import PacketRecord, PacketTracer
from repro.workloads.base import HarnessContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.harness import HarnessRun

_SYN_BIT = 0x02


#: Records formatted per ``sha256.update``: large captures are hashed in
#: bounded slices instead of one string the size of the whole trace.
_DIGEST_SLICE = 4096


def trace_digest(tracer: PacketTracer) -> str:
    """A stable digest of everything the tracer captured.

    Two runs are byte-identical iff every captured segment matches in time,
    location, TCP header fields and carried option types — the signal the
    determinism regression tests key on.
    """
    return _walk_capture(tracer.records)[0]


def _walk_capture(records: list[PacketRecord]) -> tuple[str, int, set[str], list[PacketRecord]]:
    """One pass over a capture: its digest, payload bytes, the links that
    carried payload, and the SYN records (what :func:`syn_join_delays`
    reads).

    Each record hashes as the line
    ``time|link|from>to|src:sport>dst:dport|seq=.. ack=.. flags=.. len=..|Opt,..``.
    Only time, seq, ack, flags and length change from segment to segment,
    so the hop-and-four-tuple prefix and the joined option type names are
    formatted once each and reused; the lines of a slice of records are
    joined and hashed with one ``update``.
    """
    digest = hashlib.sha256()
    prefixes: dict[tuple, str] = {}
    # Option tuples are widely shared between segments (pure acks reuse one
    # cached DSS tuple), so the names are memoised by tuple identity; every
    # record holds its segment alive, so ids stay stable for the walk.
    names_by_options: dict[int, str] = {}
    data_bytes = 0
    data_links: set[str] = set()
    syns: list[PacketRecord] = []
    for start in range(0, len(records), _DIGEST_SLICE):
        lines: list[str] = []
        for record in records[start:start + _DIGEST_SLICE]:
            segment = record.segment
            link = record.link
            src = segment.src
            dst = segment.dst
            key = (link, record.from_iface, record.to_iface,
                   src._value, segment.sport, dst._value, segment.dport)
            prefix = prefixes.get(key)
            if prefix is None:
                prefix = prefixes[key] = (
                    f"|{link}|{record.from_iface}>{record.to_iface}|"
                    f"{src}:{segment.sport}>{dst}:{segment.dport}|seq="
                )
            options = segment.options
            option_names = names_by_options.get(id(options))
            if option_names is None:
                option_names = ",".join([type(option).__name__ for option in options])
                names_by_options[id(options)] = option_names
            length = segment.payload_len
            flags = segment._flag_bits
            lines.append(
                f"{record.time!r}{prefix}{segment.seq} ack={segment.ack} flags={flags} "
                f"len={length}|{option_names}\n"
            )
            if length:
                data_bytes += length
                data_links.add(link)
            if flags & _SYN_BIT:
                syns.append(record)
        digest.update("".join(lines).encode("utf-8"))
    return digest.hexdigest(), data_bytes, data_links, syns


class Probe(ABC):
    """Measurement hooks around one harness run.

    ``attach`` runs right after the scenario is built (before any stack
    exists); ``collect`` runs after ``sim.run`` returned and must yield a
    JSON-serialisable dict — the sweep engine's canonical output surface.
    Values are usually scalars; structured values (e.g. the per-subflow
    byte dict) are allowed and simply skipped by the numeric aggregation
    in :mod:`repro.analysis.aggregate`.
    """

    name = "abstract"

    def attach(self, ctx: HarnessContext) -> None:
        """Install instrumentation into the freshly built scenario."""

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        """Reduce the finished run to scalar metrics."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Probe {self.name}>"


class TraceProbe(Probe):
    """Packet capture: digest + packet count, plus rich per-figure views.

    The scalar side (``trace_packets``, ``trace_digest``) is what the sweep
    determinism suite compares across worker counts.  Cells on a scenario
    with several path links store Figure 2c's ``paths_used``, the number of
    path links that carried payload; cells that joined a subflow also store
    Figure 3's SYN→MP_JOIN delays: ``mp_join_samples`` and their
    ``join_delay_us_*`` summary.  The rich side
    (:meth:`sequence_trace`, :meth:`syn_join_delays`) is what Figure 2a
    and the benchmark read.
    """

    name = "trace"

    def __init__(self) -> None:
        self.tracer: Optional[PacketTracer] = None

    def attach(self, ctx: HarnessContext) -> None:
        self.tracer = ctx.scenario.topology.add_tracer("sweep")

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        from repro.analysis.aggregate import fold_series

        assert self.tracer is not None, "TraceProbe.collect before attach"
        digest, data_bytes, data_links, syns = _walk_capture(self.tracer.records)
        metrics: dict[str, Any] = {
            "trace_packets": len(self.tracer),
            "trace_digest": digest,
            # Wire-level payload bytes: against the workload's delivered
            # bytes this exposes the retransmission overhead of the run.
            "trace_data_bytes": data_bytes,
        }
        # Figure 2c's quantity, only on multi-path scenarios: how many path
        # links carried data (the middlebox topologies list both legs of
        # their middlebox path, so there it counts legs, not paths).
        path_links = run.scenario.path_links
        if len(path_links) > 1:
            metrics["paths_used"] = sum(1 for link in path_links if link.name in data_links)
        # Figure 3's quantity, only in cells that joined a subflow.  In µs:
        # the latency family's absolute tolerance (0.01) would swallow any
        # drift measured in seconds.
        delays = syn_join_delays(syns)
        if delays:
            metrics["mp_join_samples"] = len(delays)
            metrics.update(fold_series([delay * 1e6 for delay in delays], "join_delay_us"))
        return metrics

    # -- figure-facing views -------------------------------------------
    def sequence_trace(self) -> SubflowSequenceTrace:
        """The Figure 2a data set (sequence progress per subflow)."""
        assert self.tracer is not None, "TraceProbe used before attach"
        return extract_sequence_trace(self.tracer)

    def syn_join_delays(self) -> list[float]:
        """The Figure 3 data set (MP_CAPABLE-SYN to MP_JOIN-SYN delays)."""
        assert self.tracer is not None, "TraceProbe used before attach"
        return syn_join_delays(self.tracer.records)


class GoodputProbe(Probe):
    """Application-level goodput from the workload's delivery accounting."""

    name = "goodput"

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        delivered = run.workload.delivered_bytes(run)
        elapsed = run.workload.elapsed(run)
        goodput = None
        if delivered is not None:
            goodput = (delivered * 8 / elapsed / 1e6) if elapsed > 0 else 0.0
        return {"goodput_mbps": goodput}


class SubflowProbe(Probe):
    """Per-subflow byte accounting of the workload's primary connection."""

    name = "subflows"

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        metrics: dict[str, Any] = {
            "connections_initiated": run.client.stack.connections_initiated,
        }
        conn = run.connection
        if conn is not None:
            flows = conn.subflows
            metrics["subflows_created"] = len(flows)
            metrics["subflows_used"] = sum(1 for flow in flows if flow.bytes_scheduled > 0)
            metrics["subflow_bytes"] = {str(flow.id): flow.bytes_scheduled for flow in flows}
            metrics["reinjected_bytes"] = sum(flow.reinjected_bytes for flow in flows)
        return metrics


class AppLatencyProbe(Probe):
    """Summary of the workload's per-unit latencies (blocks, requests, messages)."""

    name = "app_latency"

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        samples = run.workload.app_latencies(run)
        return {
            "app_samples": len(samples),
            "app_latency_mean": (sum(samples) / len(samples)) if samples else None,
            "app_latency_max": max(samples) if samples else None,
        }


class FaultProbe(Probe):
    """Fault-injection counters and connection-survival signals.

    Collects nothing (an empty dict) for scenarios without a fault
    injector, so adding it to the default probe set does not disturb the
    metrics — or the committed baselines — of clean cells.  For faulted
    scenarios it publishes the injector's deterministic counters plus the
    survival facts :mod:`repro.analysis.faults` judges robustness by.
    """

    name = "faults"

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        injector = run.scenario.fault_injector
        if injector is None:
            return {}
        metrics: dict[str, Any] = {
            f"fault_{key}": value for key, value in injector.stats().items()
        }
        conn = run.connection
        if conn is not None:
            metrics["connection_established"] = int(conn.established)
            metrics["connection_closed"] = int(conn.closed)
            metrics["subflows_live_at_end"] = len(conn.live_subflows)
            metrics["subflows_closed_total"] = conn.subflows_created - len(conn.live_subflows)
        return metrics


class FallbackProbe(Probe):
    """Plain-TCP fallback accounting (the RFC 6824 §3.6 downgrade path).

    Collects nothing for runs that neither could nor did fall back, so the
    metrics — and committed baselines — of ordinary clean cells stay
    untouched.  A run is fallback-relevant when its scenario injects faults
    (``fault_injector``), declares itself fallback-prone (the MP_CAPABLE
    stripper topologies), or when any client-side connection actually
    downgraded.  Metrics are client-side: ``fallback_connections`` counts
    downgrades over the whole run (closed connections included) and
    ``fallback_bytes`` the connection-level bytes moved while fallen back.
    """

    name = "fallback"

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        stack = run.client.stack
        relevant = (
            run.scenario.fault_injector is not None
            or run.scenario.fallback_prone
            or stack.connections_fallen_back > 0
        )
        if not relevant:
            return {}
        fallen = stack.fallback_connections
        return {
            "fallback_connections": stack.connections_fallen_back,
            "fallback_bytes": sum(
                conn.fallback_bytes_sent + conn.fallback_bytes_received for conn in fallen
            ),
        }


class RepairProbe(Probe):
    """Subflow repair accounting (the §4.1 long-lived connection).

    Collects nothing for runs where repair neither applies nor happened, so
    the metrics — and committed baselines — of ordinary cells stay
    untouched.  It applies under a controller that re-establishes failed
    subflows (``userspace_fullmesh``): ``subflow_failures`` counts the
    subflows that controller saw close and ``reestablishments`` the ones it
    re-opened.  It happened when the scenario's NAT expired idle flow
    state: ``nat_expired_flows`` counts the expiries.
    """

    name = "repair"

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        controller = run.client.controller
        expired = getattr(run.scenario.middlebox, "expired_flows", 0)
        repairs = hasattr(controller, "reestablishments")
        if not repairs and not expired:
            return {}
        metrics: dict[str, Any] = {"nat_expired_flows": expired}
        if repairs:
            metrics["reestablishments"] = controller.reestablishments
            metrics["subflow_failures"] = controller.state.subflows_closed
        return metrics


class AggregateProbe(Probe):
    """Per-connection metrics folded into bounded summary statistics.

    Collects nothing (an empty dict) for single-connection runs, so adding
    it to the default probe set does not disturb the metrics — or the
    committed baselines — of pre-scale-axis cells.  For many-connection
    cells (``spec.connections > 1``) it folds three per-connection series
    through :func:`repro.analysis.aggregate.fold_series` — goodput in Mbps
    (``agg_goodput_mbps_*``), the flattened per-unit latency samples
    (``agg_latency_*``) and the subflow count of each primary connection
    (``agg_subflows_*``) — each into ``sum/mean/p50/p95/min/max``, plus the
    ``agg_connections`` / ``agg_connections_started`` counters.  Output
    size is constant in the connection count, which is what keeps reports
    and baselines bounded as the scale axis grows.
    """

    name = "aggregate"

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        from repro.analysis.aggregate import fold_series

        if int(getattr(run.spec, "connections", 1)) <= 1:
            return {}
        workload = run.workload
        started = [driver for driver in run.drivers if driver is not None]
        metrics: dict[str, Any] = {
            "agg_connections": len(run.drivers),
            "agg_connections_started": len(started),
        }

        goodputs = []
        for driver in started:
            delivered = workload.driver_delivered_bytes(run, driver)
            if delivered is None:
                continue
            elapsed = workload.driver_elapsed(run, driver)
            goodputs.append((delivered * 8 / elapsed / 1e6) if elapsed > 0 else 0.0)
        metrics.update(fold_series(goodputs, "agg_goodput_mbps"))

        latencies = [
            sample for driver in started for sample in workload.driver_latencies(run, driver)
        ]
        metrics.update(fold_series(latencies, "agg_latency"))

        subflow_counts = [
            len(conn.subflows) for conn in run.connections if conn is not None
        ]
        metrics.update(fold_series(subflow_counts, "agg_subflows"))
        return metrics


class EventsProbe(Probe):
    """Structured event tracing and stack counters (``repro.obs``).

    Strictly opt-in: the probe attaches an
    :class:`~repro.obs.events.EventLog` to ``sim.event_log`` only when
    the cell's params carry a truthy ``event_log``, and collects nothing
    (an empty dict) otherwise — so its presence in the default probe set
    leaves ordinary cells, and the committed baselines, byte-identical.
    Because params are part of the config hash, enabling it changes the
    cell key, which keeps traced results from ever colliding with
    untraced stored cells.

    Params understood: ``event_log`` (truthy switch),
    ``event_log_categories`` (comma-separated string or sequence;
    default: all categories) and ``event_log_limit`` (retention cap).
    Collected metrics: ``events_recorded``, ``events_dropped``, the
    per-category ``event_counts`` and the per-scope ``event_counters``
    (client/server stack counters plus fault-injector stats).
    """

    name = "events"

    def __init__(self) -> None:
        self.log = None

    def attach(self, ctx: HarnessContext) -> None:
        if not ctx.params.get("event_log"):
            return
        from repro.obs import DEFAULT_LIMIT, EventLog

        categories = ctx.params.get("event_log_categories")
        if isinstance(categories, str):
            categories = [part.strip() for part in categories.split(",") if part.strip()]
        limit = int(ctx.params.get("event_log_limit", DEFAULT_LIMIT))
        self.log = EventLog(categories=categories, limit=limit)
        ctx.sim.event_log = self.log

    def collect(self, run: "HarnessRun") -> dict[str, Any]:
        if self.log is None:
            return {}
        from repro.obs import CounterRegistry

        registry = CounterRegistry()
        registry.record("client", run.client.stack.counters())
        if run.server_stack is not None:
            registry.record("server", run.server_stack.counters())
        injector = run.scenario.fault_injector
        if injector is not None:
            registry.record("faults", injector.stats())
        return {
            "events_recorded": len(self.log),
            "events_dropped": self.log.dropped,
            "event_counts": self.log.counts_by_category(),
            "event_counters": registry.snapshot(),
        }


#: Probe factories by registry name (the sweep cell runner's default set).
PROBES: dict[str, Callable[[], Probe]] = {
    "trace": TraceProbe,
    "goodput": GoodputProbe,
    "subflows": SubflowProbe,
    "app_latency": AppLatencyProbe,
    "faults": FaultProbe,
    "fallback": FallbackProbe,
    "repair": RepairProbe,
    "aggregate": AggregateProbe,
    "events": EventsProbe,
}

#: The probes every sweep cell runs, in collection order.
DEFAULT_PROBES: tuple[str, ...] = (
    "trace", "goodput", "subflows", "app_latency", "faults", "fallback",
    "repair", "aggregate", "events",
)


def make_probe(entry) -> Probe:
    """Resolve a probe spec entry (registry name or ready instance)."""
    if isinstance(entry, Probe):
        return entry
    try:
        return PROBES[entry]()
    except KeyError:
        raise ValueError(f"unknown probe {entry!r} (have {sorted(PROBES)})") from None
