"""Predefined campaign grids: one :data:`GRIDS` table, name → grid axes.

Named, versioned grid definitions so the CLI, the benchmarks and CI all
sweep the same matrices.  :func:`named_grid` is the one way to get one:

* ``quick`` — a four-cell smoke grid (seconds; the CI sweep job);
* ``default`` — the 24-cell acceptance matrix (2 schedulers × 2
  controllers × 3 scenarios × 2 seeds);
* ``full`` — every workload × scheduler × controller × dual-path scenario;
* ``workloads`` — every registered workload over every registered
  scenario under the default scheduler and the in-kernel full-mesh path
  manager (the orthogonal matrix the unified harness unlocked), with
  parameters small enough that the grid runs in well under a minute;
* ``scale`` — one bulk workload swept along the ``connections`` axis
  (1/10/100/500 concurrent connections over the shared dual-homed
  bottleneck).  Transfers are small and the packet trace is off: the
  point is connection-count scaling and the bounded ``agg_*`` metrics,
  not per-cell wire detail.  Starts are staggered over
  ``connection_stagger`` seconds with offsets derived from the cell seed;
* ``fuzz`` — faulted scenario variants next to their clean twins.  The
  seed axis doubles as the fault-plan axis: each seed index derives its
  own cell seed and therefore its own
  :class:`~repro.faults.plan.FaultPlan`, so ``seeds=N`` sweeps N
  deterministic adversaries per scenario, and the twins in the same
  campaign let :func:`repro.analysis.faults.triage_campaign` judge
  goodput retention cell by cell;
* ``downgrade`` — the plain-TCP fallback matrix: the symmetric and the
  SYN/ACK-only MP_CAPABLE strippers and the curated ``mpcapable_strip``
  plan against their clean twin ``dual_homed``.  Every hostile cell must
  come up as a fallback with nonzero goodput (triage verdict
  ``fallback``), which the determinism suite and CI pin.

Plus one campaign per paper figure.  ``fig2c`` and ``fig3`` *are*
Figures 2c and 3: ``runner fig2c`` formats the ten ``ndiffports`` and ten
``refresh`` cells on ``ecmp``, and ``runner fig3`` the in-kernel /
userspace ndiffports cell pair.  The fig2a, fig2b and longlived rows are
one-cell sweep twins that approximate presets still living in their
``repro.experiments`` modules, but give every figure a cached,
regression-tracked data point inside the campaign format.
"""

from __future__ import annotations

import copy

from repro.sweep.grid import CampaignGrid
from repro.workloads.registry import FAULTED_SCENARIOS, SCENARIOS, WORKLOADS

#: Grid name → its :class:`CampaignGrid` fields (all but ``name`` and
#: ``campaign_seed``), in the order ``runner list`` prints them.
GRIDS: dict[str, dict] = {
    "quick": dict(
        experiments=["bulk_transfer"],
        scenarios=["dual_homed", "asymmetric_loss"],
        controllers=["passive", "fullmesh"],
        params={"transfer_bytes": 100_000, "horizon": 15.0},
    ),
    "default": dict(
        experiments=["bulk_transfer"],
        scenarios=["dual_homed", "asymmetric_loss", "path_failure_recovery"],
        schedulers=["lowest_rtt", "round_robin"],
        controllers=["passive", "fullmesh"],
        seeds=2,
        params={"transfer_bytes": 150_000, "horizon": 20.0},
    ),
    "full": dict(
        experiments=["bulk_transfer", "streaming", "http", "longlived"],
        scenarios=[
            "dual_homed",
            "natted",
            "wifi_lte_handover",
            "asymmetric_loss",
            "bufferbloat_cellular",
            "path_failure_recovery",
            "addaddr_stripped",
        ],
        schedulers=["lowest_rtt", "round_robin", "redundant"],
        controllers=["passive", "fullmesh", "ndiffports", "smart_backup", "refresh"],
        seeds=3,
        params={
            "transfer_bytes": 150_000,
            "block_count": 6,
            "request_count": 3,
            "object_size": 100_000,
            "message_interval": 2.0,
            "horizon": 25.0,
        },
    ),
    "workloads": dict(
        experiments=sorted(WORKLOADS),
        scenarios=sorted(SCENARIOS),
        controllers=["fullmesh"],
        params={
            "transfer_bytes": 80_000,
            "block_count": 4,
            "request_count": 2,
            "object_size": 50_000,
            "message_interval": 2.0,
            "horizon": 15.0,
        },
    ),
    "scale": dict(
        experiments=["bulk_transfer"],
        scenarios=["dual_homed"],
        controllers=["passive"],
        connections=[1, 10, 100, 500],
        params={
            "transfer_bytes": 4_000,
            "horizon": 12.0,
            "trace_probe": False,
            "connection_stagger": 2.0,
        },
    ),
    "fuzz": dict(
        experiments=["bulk_transfer", "longlived"],
        scenarios=sorted(set(FAULTED_SCENARIOS) | set(FAULTED_SCENARIOS.values())),
        controllers=["fullmesh"],
        seeds=2,
        params={"transfer_bytes": 60_000, "message_interval": 2.0, "horizon": 15.0},
    ),
    "downgrade": dict(
        experiments=["bulk_transfer", "http"],
        scenarios=[
            "dual_homed",
            "faulted_downgrade",
            "mpcapable_stripped",
            "mpcapable_stripped_synack",
        ],
        controllers=["fullmesh"],
        seeds=2,
        params={
            "transfer_bytes": 60_000,
            "request_count": 2,
            "object_size": 40_000,
            "horizon": 15.0,
        },
    ),
    # Fig 2a: handover off a failing primary path with the smart backup
    # controller (§4.2).  Large enough that the transfer straddles the
    # t=1.5s blackout, so the handover is actually on the critical path.
    "fig2a": dict(
        experiments=["bulk_transfer"],
        scenarios=["path_failure_recovery"],
        controllers=["smart_backup"],
        params={"transfer_bytes": 2_000_000, "horizon": 30.0},
    ),
    # Fig 2b: fixed-rate streaming over paths with very unequal loss (§4.3).
    "fig2b": dict(
        experiments=["streaming"],
        scenarios=["asymmetric_loss"],
        controllers=["passive"],
        params={"block_count": 10, "horizon": 25.0},
    ),
    # Fig 2c: a 10 MB transfer (a tenth of the paper's 100 MB) over the
    # four ECMP paths, ten seeds each under in-kernel ndiffports and under
    # the refresh controller, which replaces the slowest subflow (§4.4);
    # the trace probe stores how many paths carried data as ``paths_used``.
    "fig2c": dict(
        experiments=["bulk_transfer"],
        scenarios=["ecmp"],
        controllers=["ndiffports", "refresh"],
        seeds=10,
        params={"transfer_bytes": 10_485_760, "subflow_count": 5, "horizon": 60.0},
    ),
    # Fig 3: path-manager signalling delay — 200 consecutive 512 KB HTTP
    # requests on the LAN under the in-kernel and the userspace ndiffports
    # path manager (§4.5); the trace probe stores each cell's SYN→MP_JOIN
    # delays as ``join_delay_us_*``.
    "fig3": dict(
        experiments=["http"],
        scenarios=["lan"],
        controllers=["ndiffports", "userspace_ndiffports"],
        params={"request_count": 200, "object_size": 524288, "horizon": 30.0},
    ),
    # §4.1: a long-lived connection through an aggressive NAT, repaired by
    # the userspace full-mesh controller.  Message gaps beyond the NAT's
    # 60 s idle timeout, so every message finds its subflow expired.
    "longlived": dict(
        experiments=["longlived"],
        scenarios=["natted"],
        controllers=["userspace_fullmesh"],
        params={"message_bytes": 400, "message_interval": 90.0, "horizon": 380.0},
    ),
}

#: Every name :func:`named_grid` resolves; the CLI's ``--grid`` choices and
#: help text read this.
GRID_NAMES: tuple[str, ...] = tuple(GRIDS)


def named_grid(name: str, campaign_seed: int = 1) -> CampaignGrid:
    """Resolve a grid by CLI name (``quick``, ``default``, ``full``, ``fig2a`` ...).

    The row is deep-copied, so a caller that mutates the grid it gets back
    cannot change the table.
    """
    if name not in GRIDS:
        raise ValueError(f"unknown grid {name!r} (expected one of {list(GRID_NAMES)})")
    return CampaignGrid(name=name, campaign_seed=campaign_seed, **copy.deepcopy(GRIDS[name]))
