"""Client stacks driven by a SMAPP userspace controller.

The ``smart_*``, ``refresh`` and ``userspace_*`` entries of
:data:`repro.workloads.registry.CONTROLLERS`: each builds a
:class:`~repro.core.manager.SmappManager` over the client host and attaches
one controller from :mod:`repro.core.controllers`.  Only cells that name
one of these load the userspace control plane.
"""

from __future__ import annotations

from repro.core.controllers import (
    RefreshController,
    SmartBackupController,
    SmartStreamingController,
    UserspaceFullMeshController,
    UserspaceNdiffportsController,
)
from repro.core.manager import SmappManager
from repro.workloads.base import ClientSetup, HarnessContext
from repro.workloads.catalog import STREAMING
from repro.workloads.kernel_clients import STRESSED_CROSSING, STRESSED_PROCESSING


def smart_backup(ctx: HarnessContext) -> ClientSetup:
    """§4.2: open the backup subflow once the primary's RTO passes ``rto_threshold``."""
    scenario = ctx.scenario
    manager = SmappManager(ctx.sim, scenario.client, config=ctx.config)
    # Single-homed scenarios (e.g. ecmp) have no second address; the
    # controller then fails over onto the same path, which is still a
    # well-defined — if pointless — configuration.
    backup_index = min(1, len(scenario.client_addresses) - 1)
    controller = manager.attach_controller(
        SmartBackupController,
        backup_local_address=scenario.client_addresses[backup_index],
        backup_remote_address=scenario.server_addresses[
            min(1, len(scenario.server_addresses) - 1)
        ],
        backup_remote_port=ctx.server_port,
        rto_threshold=float(ctx.params.get("rto_threshold", 1.0)),
    )
    return ClientSetup(manager.stack, manager=manager, controller=controller)


def smart_streaming(ctx: HarnessContext) -> ClientSetup:
    """§4.3: open the secondary path when a block lags, close subflows whose
    RTO passes 1 s (block size and interval as the streaming workload's)."""
    scenario = ctx.scenario
    manager = SmappManager(ctx.sim, scenario.client, config=ctx.config)
    # Single-homed scenarios fall back to their one address, as smart_backup.
    secondary_index = min(1, len(scenario.client_addresses) - 1)
    block_bytes = int(ctx.params.get("block_bytes", STREAMING.default_params["block_bytes"]))
    controller = manager.attach_controller(
        SmartStreamingController,
        secondary_local_address=scenario.client_addresses[secondary_index],
        secondary_remote_address=scenario.server_addresses[
            min(1, len(scenario.server_addresses) - 1)
        ],
        secondary_remote_port=ctx.server_port,
        block_interval=float(ctx.params.get("interval", STREAMING.default_params["interval"])),
        progress_threshold=block_bytes // 2,
    )
    return ClientSetup(manager.stack, manager=manager, controller=controller)


def refresh(ctx: HarnessContext) -> ClientSetup:
    """§4.4: replace the slowest of ``subflow_count`` subflows every ``refresh_interval``."""
    manager = SmappManager(ctx.sim, ctx.scenario.client, config=ctx.config)
    controller = manager.attach_controller(
        RefreshController,
        subflow_count=int(ctx.params.get("subflow_count", 2)),
        refresh_interval=float(ctx.params.get("refresh_interval", 2.5)),
    )
    return ClientSetup(manager.stack, manager=manager, controller=controller)


def userspace_fullmesh(ctx: HarnessContext) -> ClientSetup:
    """§4.1: the full-mesh path manager as a userspace controller."""
    manager = SmappManager(ctx.sim, ctx.scenario.client, config=ctx.config)
    controller = manager.attach_controller(
        UserspaceFullMeshController,
        reestablish=bool(ctx.params.get("reestablish", True)),
    )
    return ClientSetup(manager.stack, manager=manager, controller=controller)


def userspace_ndiffports(ctx: HarnessContext) -> ClientSetup:
    """§4.5: the ndiffports path manager as a userspace controller
    (``cpu_stress`` slows both Netlink crossings and the library)."""
    latencies = {}
    if ctx.params.get("cpu_stress"):
        latencies = dict(
            kernel_to_user_latency=STRESSED_CROSSING,
            user_to_kernel_latency=STRESSED_CROSSING,
            library_processing=STRESSED_PROCESSING,
        )
    manager = SmappManager(ctx.sim, ctx.scenario.client, config=ctx.config, **latencies)
    controller = manager.attach_controller(
        UserspaceNdiffportsController,
        subflow_count=int(ctx.params.get("subflow_count", 2)),
    )
    return ClientSetup(manager.stack, manager=manager, controller=controller)
