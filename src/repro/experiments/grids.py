"""Predefined campaign grids.

Named, versioned grid definitions so the CLI, the benchmarks and CI all
sweep the same matrices.  Three tiers:

* ``quick`` — a tiny grid for smoke tests (seconds);
* ``default`` — the 24-cell acceptance matrix (2 schedulers × 2
  controllers × 3 scenarios × 2 seeds);
* ``full`` — every workload × scheduler × controller × dual-path scenario;
* ``workloads`` — every registered workload over every registered
  scenario (the orthogonal matrix the unified harness unlocked);
* ``scale`` — one workload swept along the ``connections`` axis
  (1/10/100/500 concurrent connections per cell);
* ``downgrade`` — MP_CAPABLE-interference scenarios next to their clean
  twins (the plain-TCP fallback regression matrix).

Plus one single-cell campaign per paper figure: the sweep twin of each
evaluation.  With http and longlived registered as sweep experiments the
fig3 and longlived twins now run the paper's actual workloads; the twins
remain approximations of the full evaluations — the faithful reproductions
stay in their dedicated ``repro.experiments.fig*`` modules — but give every
figure a cached, regression-tracked data point inside the campaign format.
"""

from __future__ import annotations

from repro.sweep.grid import CampaignGrid
from repro.workloads.registry import FAULTED_SCENARIOS, SCENARIOS, WORKLOADS


def quick_grid(campaign_seed: int = 1) -> CampaignGrid:
    """A four-cell smoke grid (used by the CI sweep job)."""
    return CampaignGrid(
        name="quick",
        campaign_seed=campaign_seed,
        experiments=["bulk_transfer"],
        scenarios=["dual_homed", "asymmetric_loss"],
        schedulers=["lowest_rtt"],
        controllers=["passive", "fullmesh"],
        seeds=1,
        params={"transfer_bytes": 100_000, "horizon": 15.0},
    )


def default_grid(campaign_seed: int = 1, seeds: int = 2) -> CampaignGrid:
    """The 24-cell default matrix: schedulers × controllers × scenarios × seeds."""
    return CampaignGrid(
        name="default",
        campaign_seed=campaign_seed,
        experiments=["bulk_transfer"],
        scenarios=["dual_homed", "asymmetric_loss", "path_failure_recovery"],
        schedulers=["lowest_rtt", "round_robin"],
        controllers=["passive", "fullmesh"],
        seeds=seeds,
        params={"transfer_bytes": 150_000, "horizon": 20.0},
    )


def full_grid(campaign_seed: int = 1, seeds: int = 3) -> CampaignGrid:
    """Every workload × scheduler × controller × dual-path scenario."""
    return CampaignGrid(
        name="full",
        campaign_seed=campaign_seed,
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
        seeds=seeds,
        params={
            "transfer_bytes": 150_000,
            "block_count": 6,
            "request_count": 3,
            "object_size": 100_000,
            "message_interval": 2.0,
            "horizon": 25.0,
        },
    )


def workloads_grid(campaign_seed: int = 1) -> CampaignGrid:
    """Every registered workload over every registered scenario.

    The fully orthogonal matrix the unified harness unlocked: one cell per
    workload × scenario under the default scheduler and the in-kernel
    full-mesh path manager, with workload parameters small enough that the
    whole grid runs in well under a minute.
    """
    return CampaignGrid(
        name="workloads",
        campaign_seed=campaign_seed,
        experiments=sorted(WORKLOADS),
        scenarios=sorted(SCENARIOS),
        schedulers=["lowest_rtt"],
        controllers=["fullmesh"],
        seeds=1,
        params={
            "transfer_bytes": 80_000,
            "block_count": 4,
            "request_count": 2,
            "object_size": 50_000,
            "message_interval": 2.0,
            "horizon": 15.0,
        },
    )


def scale_grid(campaign_seed: int = 1) -> CampaignGrid:
    """The many-connection matrix: one workload swept along the scale axis.

    Four bulk-transfer cells differing only in concurrent connection count
    (1, 10, 100, 500) over the shared dual-homed bottleneck.  Transfers are
    deliberately small and the packet trace is off: the point of the grid
    is connection-count scaling and the bounded ``agg_*`` summary metrics,
    not per-cell wire detail.  Connection starts are staggered over
    ``connection_stagger`` seconds with offsets derived from the cell seed.
    """
    return CampaignGrid(
        name="scale",
        campaign_seed=campaign_seed,
        experiments=["bulk_transfer"],
        scenarios=["dual_homed"],
        schedulers=["lowest_rtt"],
        controllers=["passive"],
        connections=[1, 10, 100, 500],
        seeds=1,
        params={
            "transfer_bytes": 4_000,
            "horizon": 12.0,
            "trace_probe": False,
            "connection_stagger": 2.0,
        },
    )


def fuzz_grid(campaign_seed: int = 1, seeds: int = 2) -> CampaignGrid:
    """Faulted scenario variants next to their clean twins.

    The seed axis doubles as the fault-plan axis: each seed index derives
    its own cell seed, from which the faulted scenarios derive their own
    :class:`~repro.faults.plan.FaultPlan` — so ``seeds=N`` sweeps N
    deterministic adversaries per scenario.  The clean twins ride along in
    the same campaign so :func:`repro.analysis.faults.triage_campaign` can
    judge goodput retention cell by cell.
    """
    scenarios = sorted(set(FAULTED_SCENARIOS) | set(FAULTED_SCENARIOS.values()))
    return CampaignGrid(
        name="fuzz",
        campaign_seed=campaign_seed,
        experiments=["bulk_transfer", "longlived"],
        scenarios=scenarios,
        schedulers=["lowest_rtt"],
        controllers=["fullmesh"],
        seeds=seeds,
        params={
            "transfer_bytes": 60_000,
            "message_interval": 2.0,
            "horizon": 15.0,
        },
    )


def downgrade_grid(campaign_seed: int = 1, seeds: int = 2) -> CampaignGrid:
    """The plain-TCP fallback matrix: MP_CAPABLE interference next to twins.

    Three hostile-but-survivable scenarios — the symmetric MP_CAPABLE
    stripper, the SYN/ACK-only stripper and the curated
    ``mpcapable_strip`` fault plan — run against their clean twin
    (``dual_homed``) for two workloads.  Every hostile cell must come up
    as a plain-TCP fallback with nonzero goodput (triage verdict
    ``fallback``), which is what the determinism suite and CI pin.
    """
    return CampaignGrid(
        name="downgrade",
        campaign_seed=campaign_seed,
        experiments=["bulk_transfer", "http"],
        scenarios=[
            "dual_homed",
            "faulted_downgrade",
            "mpcapable_stripped",
            "mpcapable_stripped_synack",
        ],
        schedulers=["lowest_rtt"],
        controllers=["fullmesh"],
        seeds=seeds,
        params={
            "transfer_bytes": 60_000,
            "request_count": 2,
            "object_size": 40_000,
            "horizon": 15.0,
        },
    )


def figure_campaigns(campaign_seed: int = 1) -> dict[str, CampaignGrid]:
    """One-cell campaigns mirroring each paper figure's setting."""
    return {
        # Fig 2a: handover off a failing primary path with the smart backup
        # controller (§4.2).
        "fig2a": CampaignGrid(
            name="fig2a",
            campaign_seed=campaign_seed,
            experiments=["bulk_transfer"],
            scenarios=["path_failure_recovery"],
            schedulers=["lowest_rtt"],
            controllers=["smart_backup"],
            seeds=1,
            # Large enough that the transfer straddles the t=1.5s blackout,
            # so the controller's handover is actually on the critical path.
            params={"transfer_bytes": 2_000_000, "horizon": 30.0},
        ),
        # Fig 2b: fixed-rate streaming over paths with very unequal loss (§4.3).
        "fig2b": CampaignGrid(
            name="fig2b",
            campaign_seed=campaign_seed,
            experiments=["streaming"],
            scenarios=["asymmetric_loss"],
            schedulers=["lowest_rtt"],
            controllers=["passive"],
            seeds=1,
            params={"block_count": 10, "horizon": 25.0},
        ),
        # Fig 2c: bulk transfer across ECMP paths with the refresh
        # controller replacing slow subflows (§4.4).
        "fig2c": CampaignGrid(
            name="fig2c",
            campaign_seed=campaign_seed,
            experiments=["bulk_transfer"],
            scenarios=["ecmp"],
            schedulers=["lowest_rtt"],
            controllers=["refresh"],
            seeds=1,
            params={"transfer_bytes": 1_000_000, "subflow_count": 5, "horizon": 40.0},
        ),
        # Fig 3 measures path-manager signalling delay: consecutive HTTP
        # requests on the LAN topology under the userspace ndiffports
        # controller — the actual §4.5 workload now that http is a
        # registered sweep experiment.
        "fig3": CampaignGrid(
            name="fig3",
            campaign_seed=campaign_seed,
            experiments=["http"],
            scenarios=["lan"],
            schedulers=["lowest_rtt"],
            controllers=["userspace_ndiffports"],
            seeds=1,
            params={"request_count": 20, "object_size": 512 * 1024, "horizon": 12.0},
        ),
        # §4.1: long-lived connection through an aggressive NAT, repaired
        # by the userspace full-mesh controller — the actual workload, not
        # a streaming stand-in.
        "longlived": CampaignGrid(
            name="longlived",
            campaign_seed=campaign_seed,
            experiments=["longlived"],
            scenarios=["natted"],
            schedulers=["lowest_rtt"],
            controllers=["userspace_fullmesh"],
            seeds=1,
            # Message gaps beyond the NAT's 60 s idle timeout, so every
            # message finds its subflow expired and repaired.
            params={"message_bytes": 400, "message_interval": 90.0, "horizon": 380.0},
        ),
    }


_BUILDERS = {
    "quick": quick_grid,
    "default": default_grid,
    "full": full_grid,
    "workloads": workloads_grid,
    "scale": scale_grid,
    "fuzz": fuzz_grid,
    "downgrade": downgrade_grid,
}

#: Every name :func:`named_grid` resolves, in the order ``runner list``
#: prints them; the CLI's ``--grid`` choices and help text read this.
GRID_NAMES: tuple[str, ...] = (*_BUILDERS, *sorted(figure_campaigns()))


def named_grid(name: str, campaign_seed: int = 1) -> CampaignGrid:
    """Resolve a grid by CLI name (``quick``, ``default``, ``full``, ``fig2a`` ...)."""
    if name in _BUILDERS:
        return _BUILDERS[name](campaign_seed=campaign_seed)
    figures = figure_campaigns(campaign_seed=campaign_seed)
    if name in figures:
        return figures[name]
    raise ValueError(f"unknown grid {name!r} (expected one of {list(GRID_NAMES)})")
