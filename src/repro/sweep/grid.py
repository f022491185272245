"""Declarative campaign grids.

A :class:`CampaignGrid` names the axes of a parameter sweep — experiment,
netem scenario, packet scheduler, path-manager/controller, concurrent
connection count and seed — and expands them into the cartesian product of
:class:`CellSpec` cells.  The expansion order is fixed (nested loops over
sorted-as-given axes), every cell's seed derives only from the campaign
seed and the cell coordinates, and each cell has a stable content hash so
completed cells can be stored on disk and reused across runs.

The ``connections`` axis (the scale axis) defaults to a single connection
per cell; a cell at the default is serialised, keyed, seeded and hashed
exactly as it was before the axis existed, so committed baselines and
stored cells from single-connection campaigns stay valid byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from repro.sim.randomness import derive_seed
from repro.store import SWEEP_FORMAT_VERSION


def _freeze_params(params: Optional[Mapping[str, object]]) -> tuple[tuple[str, object], ...]:
    return tuple(sorted((params or {}).items()))


@dataclass(frozen=True)
class CellSpec:
    """One point of the campaign grid."""

    experiment: str
    scenario: str
    scheduler: str
    controller: str
    seed_index: int
    params: tuple[tuple[str, object], ...] = ()
    connections: int = 1

    def __post_init__(self) -> None:
        if self.connections < 1:
            raise ValueError(f"connections must be at least 1, got {self.connections!r}")

    @property
    def key(self) -> str:
        """Human-readable stable identifier (also the aggregation sort key).

        Single-connection cells keep the pre-scale-axis key shape, so the
        keys inside committed baselines still align.
        """
        base = (
            f"{self.experiment}/{self.scenario}/{self.scheduler}/"
            f"{self.controller}/seed{self.seed_index}"
        )
        if self.connections != 1:
            return f"{base}/conn{self.connections}"
        return base

    @property
    def param_dict(self) -> dict[str, object]:
        """The extra parameters as a plain dict."""
        return dict(self.params)

    def cell_seed(self, campaign_seed: int) -> int:
        """The simulator seed for this cell.

        Depends only on the campaign seed and the cell coordinates — never
        on worker count, execution order, or which other cells exist.  The
        ``connections`` coordinate joins the derivation only when it is not
        the default, so every pre-existing cell keeps its seed.
        """
        components = [
            self.experiment,
            self.scenario,
            self.scheduler,
            self.controller,
            self.seed_index,
        ]
        if self.connections != 1:
            components.append(f"conn{self.connections}")
        return derive_seed(campaign_seed, *components)

    def as_dict(self) -> dict:
        """Plain-dict form (pickled to workers, stored in cell objects).

        ``connections`` is omitted at its default of 1 so the canonical
        dict — and therefore :meth:`config_hash` and every committed
        baseline built from it — is unchanged for single-connection cells.
        """
        data = {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "scheduler": self.scheduler,
            "controller": self.controller,
            "seed_index": self.seed_index,
            "params": {key: value for key, value in self.params},
        }
        if self.connections != 1:
            data["connections"] = self.connections
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "CellSpec":
        """Inverse of :meth:`as_dict`."""
        return cls(
            experiment=data["experiment"],
            scenario=data["scenario"],
            scheduler=data["scheduler"],
            controller=data["controller"],
            seed_index=int(data["seed_index"]),
            params=_freeze_params(data.get("params")),
            connections=int(data.get("connections", 1)),
        )

    def config_hash(self, campaign_seed: int) -> str:
        """Content hash identifying this cell's full configuration.

        Two cells with the same hash are guaranteed to produce the same
        result, which is what makes reusing stored cells safe.
        """
        payload = {
            "version": SWEEP_FORMAT_VERSION,
            "campaign_seed": int(campaign_seed),
            "spec": self.as_dict(),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CampaignGrid:
    """The cartesian product description of a sweep campaign."""

    name: str = "campaign"
    campaign_seed: int = 1
    experiments: Sequence[str] = ("bulk_transfer",)
    scenarios: Sequence[str] = ("dual_homed",)
    schedulers: Sequence[str] = ("lowest_rtt",)
    controllers: Sequence[str] = ("passive",)
    connections: Sequence[int] = (1,)
    seeds: int = 1
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ValueError(f"seeds must be at least 1, got {self.seeds!r}")
        for axis_name in ("experiments", "scenarios", "schedulers", "controllers"):
            axis = getattr(self, axis_name)
            if not axis:
                raise ValueError(f"axis {axis_name!r} must not be empty")
            if len(set(axis)) != len(tuple(axis)):
                raise ValueError(f"axis {axis_name!r} contains duplicates: {axis!r}")
        if not self.connections:
            raise ValueError("axis 'connections' must not be empty")
        for count in self.connections:
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise ValueError(f"connections axis values must be positive ints, got {count!r}")
        if len(set(self.connections)) != len(tuple(self.connections)):
            raise ValueError(f"axis 'connections' contains duplicates: {self.connections!r}")

    def as_dict(self) -> dict:
        """Plain-dict form of the grid (stored inside snapshot manifests,
        so each manifest names the axes its cells came from)."""
        return {
            "name": self.name,
            "campaign_seed": self.campaign_seed,
            "experiments": list(self.experiments),
            "scenarios": list(self.scenarios),
            "schedulers": list(self.schedulers),
            "controllers": list(self.controllers),
            "connections": list(self.connections),
            "seeds": self.seeds,
            "params": dict(self.params),
        }

    @property
    def cell_count(self) -> int:
        """Number of cells the grid expands to."""
        return (
            len(tuple(self.experiments))
            * len(tuple(self.scenarios))
            * len(tuple(self.schedulers))
            * len(tuple(self.controllers))
            * len(tuple(self.connections))
            * self.seeds
        )

    def expand(self) -> list[CellSpec]:
        """Expand the grid into cells, in a fixed deterministic order."""
        return list(self._iter_cells())

    def _iter_cells(self) -> Iterator[CellSpec]:
        frozen = _freeze_params(self.params)
        for experiment in self.experiments:
            for scenario in self.scenarios:
                for scheduler in self.schedulers:
                    for controller in self.controllers:
                        for connections in self.connections:
                            for seed_index in range(self.seeds):
                                yield CellSpec(
                                    experiment=experiment,
                                    scenario=scenario,
                                    scheduler=scheduler,
                                    controller=controller,
                                    seed_index=seed_index,
                                    params=frozen,
                                    connections=connections,
                                )

    def validate(self) -> None:
        """Check every axis value against the runtime registries.

        Reads registry *names* only — the registries and the scheduler
        table import no implementation — so validating (and therefore
        planning) a grid loads no protocol stack; the one exception is a
        grid asking for ``connections > 1``, which resolves each workload
        to read its ``supports_connections``.  The experiment axis is the
        workload registry: every registered workload is sweepable.
        """
        from repro.mptcp.scheduler import SCHEDULER_REGISTRY
        from repro.workloads.registry import CONTROLLERS, SCENARIOS, WORKLOADS

        wants_many = any(count > 1 for count in self.connections)
        for experiment in self.experiments:
            if experiment not in WORKLOADS:
                raise ValueError(f"unknown experiment {experiment!r} (have {sorted(WORKLOADS)})")
            if wants_many and not getattr(WORKLOADS[experiment], "supports_connections", True):
                raise ValueError(
                    f"experiment {experiment!r} does not support connections > 1"
                )
        for scenario in self.scenarios:
            if scenario not in SCENARIOS:
                raise ValueError(f"unknown scenario {scenario!r} (have {sorted(SCENARIOS)})")
        for scheduler in self.schedulers:
            if scheduler not in SCHEDULER_REGISTRY:
                raise ValueError(
                    f"unknown scheduler {scheduler!r} (have {sorted(SCHEDULER_REGISTRY)})"
                )
        for controller in self.controllers:
            if controller not in CONTROLLERS:
                raise ValueError(f"unknown controller {controller!r} (have {sorted(CONTROLLERS)})")
