"""The unified workload harness.

One :class:`HarnessSpec` names a point of the orthogonal grid — scenario ×
client stack (controller) × workload × scheduler × seed — plus the probes
to measure it with; :class:`Harness` assembles and runs it.  The figure
presets in :mod:`repro.experiments` and the sweep cell runner in
:mod:`repro.sweep.cells` are both thin layers over this one composition,
so the same run order (and therefore the same deterministic trace) backs
both.

Axis values may be registry names (the sweep path: everything stays
picklable) or ready callables/instances (the figure path: presets inject
bespoke scenario parameters, latency-calibrated managers and hooks without
losing the shared assembly).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.mptcp.config import MptcpConfig
from repro.mptcp.connection import MptcpConnection
from repro.mptcp.stack import MptcpStack
from repro.sim.engine import Simulator
from repro.sim.randomness import derive_seed
from repro.workloads.base import ClientSetup, HarnessContext, Workload
from repro.workloads.probes import DEFAULT_PROBES, Probe, make_probe
from repro.workloads.registry import CONTROLLERS, SCENARIOS, get_workload

#: Default server port of harness runs (kept from the sweep cell runner).
DEFAULT_SERVER_PORT = 9001

ScenarioSpec = Union[str, Callable[[Simulator], Any]]
ControllerSpec = Union[str, Callable[[HarnessContext], ClientSetup]]
WorkloadSpec = Union[str, Workload]


@dataclass
class HarnessSpec:
    """One fully described harness run."""

    workload: WorkloadSpec = "bulk_transfer"
    scenario: ScenarioSpec = "dual_homed"
    controller: ControllerSpec = "passive"
    scheduler: str = "lowest_rtt"
    seed: int = 1
    horizon: float = 30.0
    connections: int = 1
    """Concurrent client connections of the workload (the scale axis).

    At the default of 1 the assembly is exactly the historical one — the
    single client connection starts synchronously during composition — so
    single-connection runs stay byte-identical to pre-axis builds.  For
    ``connections > 1`` every connection start is scheduled as a simulator
    event at a per-connection offset derived purely from the spec seed
    (see :func:`~repro.sim.randomness.derive_seed`), spread over the
    ``connection_stagger`` param (seconds, default 1.0)."""
    server_port: int = DEFAULT_SERVER_PORT
    params: Mapping[str, Any] = field(default_factory=dict)
    probes: Sequence[Union[str, Probe]] = DEFAULT_PROBES
    hooks: Sequence[Callable[["HarnessRun"], None]] = ()
    """Callbacks run after the client started, before ``sim.run`` — the
    place to schedule mid-run events (loss onset, interface flaps)."""
    trace_probe: bool = True
    """When ``False``, probes named ``trace`` are dropped from the spec's
    probe list before attaching.  The packet-capture list dominates memory
    on very large cells; this is the opt-out for sweeps that only need the
    cheap scalar probes.  (Disabling it also removes the trace metrics
    from the cell's output, so it is part of the cell's configuration.)"""
    measure_probe_overhead: bool = False
    """When ``True``, the per-probe wall-clock overhead (attach + collect
    seconds) is published as the structured ``probe_overhead_s`` metric.
    Off by default: wall times are non-deterministic, and sweep cells must
    stay byte-identical across runs.  The timings are always available on
    :attr:`HarnessRun.probe_timings` regardless of this flag.

    Only the attach and collect phases are timed — cost a probe incurs
    *during* ``sim.run`` (the trace probe's per-packet capture, which is
    exactly why :attr:`trace_probe` exists) happens inside the event loop
    and cannot be attributed per probe; gauge it by comparing whole-cell
    wall time with the probe on and off."""


@dataclass
class HarnessRun:
    """A finished (or about-to-run) harness composition."""

    spec: HarnessSpec
    sim: Simulator
    scenario: Any
    config: MptcpConfig
    params: dict[str, Any]
    workload: Workload
    client: ClientSetup
    driver: Any
    connection: Optional[MptcpConnection]
    server_apps: list
    probes: dict[str, Probe]
    metrics: dict[str, Any] = field(default_factory=dict)
    probe_timings: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds each probe spent in attach + collect."""
    drivers: list = field(default_factory=list)
    """Per-connection client drivers, in connection index order.  Length
    ``spec.connections``; a slot is ``None`` until that connection's
    staggered start fired.  For single-connection runs this is
    ``[driver]``."""
    connections: list = field(default_factory=list)
    """Per-connection primary :class:`MptcpConnection` objects (``None``
    for not-yet-started slots and for connection-per-request workloads),
    aligned with :attr:`drivers`."""
    server_stack: Any = None
    """The server-side :class:`MptcpStack` (counter collection needs
    both ends; ``None`` only in hand-built runs that skip the server)."""

    def probe(self, name: str) -> Probe:
        """Look up one of the run's probes by registry name."""
        try:
            return self.probes[name]
        except KeyError:
            raise KeyError(
                f"run has no probe {name!r} (have {sorted(self.probes)})"
            ) from None


def resolve_client_setup(setup: Any) -> ClientSetup:
    """Normalise a controller entry's return value to a :class:`ClientSetup`."""
    if isinstance(setup, ClientSetup):
        return setup
    if isinstance(setup, MptcpStack):
        return ClientSetup(stack=setup)
    raise TypeError(
        f"controller setup must return a ClientSetup or MptcpStack, got {type(setup).__name__}"
    )


def _resolve(kind: str, registry: Mapping[str, Callable], entry: Union[str, Callable]) -> Callable:
    """An axis entry as a callable: itself, or its name looked up in ``registry``."""
    if callable(entry):
        return entry
    try:
        return registry[entry]
    except KeyError:
        raise ValueError(f"unknown {kind} {entry!r} (have {sorted(registry)})") from None


class Harness:
    """Compose scenario × controller × workload × probes into one run.

    The assembly order is fixed and mirrors the hand-wired figure scripts
    this layer replaced: simulator, scenario, probes, server stack, client
    stack, workload start, hooks, run, collect.  Keeping that order is what
    lets the refactored figure presets reproduce their original reports
    byte for byte.
    """

    # ------------------------------------------------------------------
    # the composition
    # ------------------------------------------------------------------
    def run(self, spec: HarnessSpec) -> HarnessRun:
        """Build and run one cell of the grid; returns the finished run."""
        workload = get_workload(spec.workload)
        params: dict[str, Any] = {**workload.default_params, **dict(spec.params)}

        sim = Simulator(seed=spec.seed)
        scenario = _resolve("scenario", SCENARIOS, spec.scenario)(sim)
        config = MptcpConfig(scheduler=spec.scheduler)
        ctx = HarnessContext(
            sim=sim,
            scenario=scenario,
            config=config,
            params=params,
            server_port=spec.server_port,
        )

        probes: dict[str, Probe] = {}
        probe_timings: dict[str, float] = {}
        for entry in spec.probes:
            probe = make_probe(entry)
            if probe.name in probes:
                raise ValueError(f"duplicate probe {probe.name!r} in spec")
            if probe.name == "trace" and not spec.trace_probe:
                continue
            attach_started = time.perf_counter()
            probe.attach(ctx)
            probe_timings[probe.name] = time.perf_counter() - attach_started
            probes[probe.name] = probe

        server_apps: list = []

        def server_factory():
            app = workload.server_app(ctx)
            server_apps.append(app)
            return app

        server_stack = MptcpStack(sim, scenario.server, config=config)
        server_stack.listen(spec.server_port, server_factory)

        client = resolve_client_setup(_resolve("controller", CONTROLLERS, spec.controller)(ctx))

        n_connections = int(spec.connections)
        if n_connections < 1:
            raise ValueError(f"connections must be at least 1, got {spec.connections!r}")
        if n_connections > 1 and not workload.supports_connections:
            raise ValueError(
                f"workload {workload.name!r} does not support connections > 1"
            )

        if n_connections == 1:
            # The historical path: the single client connection starts
            # synchronously during composition.  Byte-identity of every
            # committed baseline rides on this branch staying untouched.
            driver, connection = workload.start(ctx, client.stack)
            drivers = [driver]
            conn_list: list = [connection]
        else:
            driver = None
            connection = None
            drivers = [None] * n_connections
            conn_list = [None] * n_connections

        run = HarnessRun(
            spec=spec,
            sim=sim,
            scenario=scenario,
            config=config,
            params=params,
            workload=workload,
            client=client,
            driver=driver,
            connection=connection,
            server_apps=server_apps,
            probes=probes,
            probe_timings=probe_timings,
            drivers=drivers,
            connections=conn_list,
            server_stack=server_stack,
        )

        if n_connections > 1:
            # Stagger the N connection starts over `connection_stagger`
            # seconds.  Each offset derives purely from the spec seed and
            # the connection index, so the start schedule is a function of
            # the cell coordinates — independent of workers, store state
            # and dict order — and two cells differing only in seed get
            # different arrival patterns.
            stagger = float(params.get("connection_stagger", 1.0))

            def start_connection(index: int) -> None:
                one_driver, one_connection = workload.start(ctx, client.stack)
                run.drivers[index] = one_driver
                run.connections[index] = one_connection
                if index == 0:
                    run.driver = one_driver
                    run.connection = one_connection

            for index in range(n_connections):
                offset = (
                    derive_seed(spec.seed, "connection", index) % 10**9
                ) / 10**9 * stagger
                sim.schedule(offset, start_connection, index)

        for hook in spec.hooks:
            hook(run)

        # Pause the cyclic GC for the event loop itself: the simulation
        # allocates segments/events at a rate that triggers generation-0
        # collections constantly, none of which find garbage cycles worth
        # the pauses.  Objects freed during the run are still reclaimed by
        # reference counting; the backlog is swept when GC resumes.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            sim.run(until=spec.horizon)
        finally:
            if gc_was_enabled:
                gc.enable()

        run.metrics = dict(workload.collect(run))
        for probe in probes.values():
            collect_started = time.perf_counter()
            run.metrics.update(probe.collect(run))
            probe_timings[probe.name] += time.perf_counter() - collect_started
        if spec.measure_probe_overhead:
            run.metrics["probe_overhead_s"] = dict(probe_timings)
        return run


def run_workload(spec: HarnessSpec) -> HarnessRun:
    """Run one harness composition against the global registries."""
    return Harness().run(spec)
