"""Client stacks driven by an in-kernel path manager.

The ``passive``, ``fullmesh`` and ``ndiffports`` entries of
:data:`repro.workloads.registry.CONTROLLERS`: each builds the client-side
:class:`~repro.mptcp.stack.MptcpStack` with the requested path manager and
nothing from the userspace control plane (:mod:`repro.core` stays unloaded).
"""

from __future__ import annotations

from repro.mptcp.path_manager import FullMeshPathManager, NdiffportsPathManager
from repro.mptcp.stack import MptcpStack
from repro.workloads.base import ClientSetup, HarnessContext


def passive(ctx: HarnessContext) -> ClientSetup:
    """No path manager: the connection keeps its initial subflow."""
    return ClientSetup(MptcpStack(ctx.sim, ctx.scenario.client, config=ctx.config))


def fullmesh(ctx: HarnessContext) -> ClientSetup:
    """The in-kernel full-mesh path manager (one subflow per address pair)."""
    return ClientSetup(
        MptcpStack(
            ctx.sim, ctx.scenario.client, config=ctx.config, path_manager=FullMeshPathManager()
        )
    )


def ndiffports(ctx: HarnessContext) -> ClientSetup:
    """The in-kernel ndiffports path manager (``subflow_count`` param, default 2)."""
    count = int(ctx.params.get("subflow_count", 2))
    return ClientSetup(
        MptcpStack(
            ctx.sim,
            ctx.scenario.client,
            config=ctx.config,
            path_manager=NdiffportsPathManager(subflow_count=count),
        )
    )
