"""Unit tests for the sweep subsystem: grids, cells, engine, report."""

import json

import pytest

from repro.mptcp.scheduler import SCHEDULER_REGISTRY
from repro.sweep import (
    CONTROLLERS,
    EXPERIMENTS,
    SCENARIOS,
    CampaignGrid,
    CellSpec,
    format_campaign_report,
    run_campaign,
    run_cell,
)


def tiny_grid(**overrides) -> CampaignGrid:
    defaults = dict(
        name="tiny",
        campaign_seed=11,
        experiments=["bulk_transfer"],
        scenarios=["dual_homed"],
        schedulers=["lowest_rtt"],
        controllers=["passive"],
        seeds=1,
        params={"transfer_bytes": 40_000, "horizon": 10.0},
    )
    defaults.update(overrides)
    return CampaignGrid(**defaults)


class TestGrid:
    def test_expansion_order_and_count(self):
        grid = tiny_grid(
            schedulers=["lowest_rtt", "round_robin"],
            controllers=["passive", "fullmesh"],
            seeds=2,
        )
        cells = grid.expand()
        assert len(cells) == grid.cell_count == 8
        # Nesting order is scheduler > controller > seed (seed innermost).
        assert [cell.key for cell in cells] == [
            "bulk_transfer/dual_homed/lowest_rtt/passive/seed0",
            "bulk_transfer/dual_homed/lowest_rtt/passive/seed1",
            "bulk_transfer/dual_homed/lowest_rtt/fullmesh/seed0",
            "bulk_transfer/dual_homed/lowest_rtt/fullmesh/seed1",
            "bulk_transfer/dual_homed/round_robin/passive/seed0",
            "bulk_transfer/dual_homed/round_robin/passive/seed1",
            "bulk_transfer/dual_homed/round_robin/fullmesh/seed0",
            "bulk_transfer/dual_homed/round_robin/fullmesh/seed1",
        ]
        # Expansion is deterministic.
        assert grid.expand() == cells

    def test_axes_must_be_nonempty_and_unique(self):
        with pytest.raises(ValueError):
            tiny_grid(schedulers=[])
        with pytest.raises(ValueError):
            tiny_grid(controllers=["passive", "passive"])
        with pytest.raises(ValueError):
            tiny_grid(seeds=0)

    def test_validate_rejects_unknown_axis_values(self):
        with pytest.raises(ValueError, match="scenario"):
            tiny_grid(scenarios=["atlantis"]).validate()
        with pytest.raises(ValueError, match="scheduler"):
            tiny_grid(schedulers=["fastest"]).validate()
        with pytest.raises(ValueError, match="controller"):
            tiny_grid(controllers=["hal9000"]).validate()
        with pytest.raises(ValueError, match="experiment"):
            tiny_grid(experiments=["teleport"]).validate()

    def test_cell_spec_roundtrip(self):
        spec = tiny_grid().expand()[0]
        assert CellSpec.from_dict(spec.as_dict()) == spec
        assert CellSpec.from_dict(json.loads(json.dumps(spec.as_dict()))) == spec

    def test_cell_seed_is_stable_and_coordinate_dependent(self):
        cells = tiny_grid(schedulers=["lowest_rtt", "round_robin"]).expand()
        assert cells[0].cell_seed(1) == cells[0].cell_seed(1)
        assert cells[0].cell_seed(1) != cells[1].cell_seed(1)
        assert cells[0].cell_seed(1) != cells[0].cell_seed(2)

    def test_config_hash_tracks_params_and_seed(self):
        base = tiny_grid().expand()[0]
        changed = tiny_grid(params={"transfer_bytes": 50_000, "horizon": 10.0}).expand()[0]
        assert base.config_hash(1) != changed.config_hash(1)
        assert base.config_hash(1) != base.config_hash(2)
        assert base.config_hash(1) == base.config_hash(1)


class TestRegistries:
    def test_registry_contents(self):
        # Every registered workload doubles as a sweep experiment.
        assert set(EXPERIMENTS) == {"bulk_transfer", "streaming", "http", "longlived"}
        assert {"dual_homed", "natted", "ecmp", "lan", "wifi_lte_handover", "asymmetric_loss",
                "bufferbloat_cellular", "path_failure_recovery", "addaddr_stripped"} <= set(SCENARIOS)
        assert {"passive", "fullmesh", "ndiffports", "smart_backup", "refresh",
                "userspace_fullmesh", "userspace_ndiffports"} <= set(CONTROLLERS)
        # Grid validation accepts every registered scheduler.
        tiny_grid(schedulers=sorted(SCHEDULER_REGISTRY)).validate()

    def test_run_cell_rejects_unknown_entries(self):
        spec = tiny_grid().expand()[0].as_dict()
        spec["scenario"] = "atlantis"
        with pytest.raises(ValueError):
            run_cell(spec, 1)


class TestEngine:
    def test_cache_hits_on_rerun(self, tmp_path):
        grid = tiny_grid(controllers=["passive", "fullmesh"])
        first = run_campaign(grid, workers=1, store_dir=str(tmp_path))
        assert (first.cache_hits, first.cache_misses) == (0, 2)
        second = run_campaign(grid, workers=1, store_dir=str(tmp_path))
        assert (second.cache_hits, second.cache_misses) == (2, 0)
        assert all(cell.cached for cell in second.cells)
        assert first.to_canonical_json() == second.to_canonical_json()

    def test_changed_seed_misses_cache(self, tmp_path):
        run_campaign(tiny_grid(), workers=1, store_dir=str(tmp_path))
        rerun = run_campaign(tiny_grid(campaign_seed=12), workers=1, store_dir=str(tmp_path))
        assert rerun.cache_misses == 1

    def test_progress_callback_sees_every_cell(self):
        seen = []
        grid = tiny_grid(controllers=["passive", "fullmesh"])
        run_campaign(
            grid,
            workers=1,
            progress=lambda spec, result, cached, telemetry: seen.append(spec.key),
        )
        assert sorted(seen) == sorted(cell.key for cell in grid.expand())

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_campaign(tiny_grid(), workers=0)

    def test_parallel_fallback_matches_serial(self, monkeypatch):
        import concurrent.futures

        grid = tiny_grid(controllers=["passive", "fullmesh"])
        serial = run_campaign(grid, workers=1)

        def broken_pool(*args, **kwargs):
            raise OSError("no process pool in this sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", broken_pool)
        fallen_back = run_campaign(grid, workers=4)
        assert fallen_back.parallel_fallback
        assert fallen_back.notes
        assert fallen_back.to_canonical_json() == serial.to_canonical_json()

    def test_metric_values_skip_incomplete_cells(self):
        grid = tiny_grid()
        result = run_campaign(grid, workers=1)
        values = result.metric_values("completion_time")
        assert values and all(value > 0 for value in values)


class TestReport:
    def test_report_mentions_every_scenario_and_cache_state(self, tmp_path):
        grid = tiny_grid(
            scenarios=["dual_homed", "asymmetric_loss"],
            controllers=["passive", "fullmesh"],
        )
        result = run_campaign(grid, workers=1, store_dir=str(tmp_path))
        report = format_campaign_report(result)
        assert "dual_homed" in report and "asymmetric_loss" in report
        assert "0 cached / 4 computed" in report
        rerun = run_campaign(grid, workers=1, store_dir=str(tmp_path))
        assert "4 cached / 0 computed" in format_campaign_report(rerun)

    def test_streaming_report_uses_block_metric(self):
        grid = tiny_grid(
            experiments=["streaming"],
            params={"block_count": 3, "horizon": 10.0},
        )
        report = format_campaign_report(run_campaign(grid, workers=1))
        assert "block_delay_mean" in report


class TestRunnerIntegration:
    def test_all_excludes_the_sweep_campaign(self, monkeypatch):
        """`smapp-experiments all` reproduces the paper figures only; the
        sweep, the single-cell runner, the registry listing and the
        regression-gate pair (baseline/diff) are opt-in."""
        from repro.experiments import runner

        ran = []
        monkeypatch.setattr(
            runner, "EXPERIMENTS", {name: lambda args, name=name: ran.append(name) or ""
                                    for name in runner.EXPERIMENTS}
        )
        assert runner.main(["all"]) == 0
        assert ran == list(runner.FIGURES)

    def test_import_error_during_pool_setup_falls_back(self, monkeypatch):
        import concurrent.futures

        grid = tiny_grid(controllers=["passive", "fullmesh"])

        def no_semaphores(*args, **kwargs):
            raise ImportError("This platform lacks a functioning sem_open implementation")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_semaphores)
        result = run_campaign(grid, workers=4)
        assert result.parallel_fallback
        assert result.cell_count == 2

    def test_cell_error_aborts_instead_of_falling_back(self):
        """An exception from a cell's own code must propagate, not be
        misread as 'pool unavailable' and trigger a serial re-run."""
        grid = tiny_grid(
            controllers=["passive", "fullmesh"],
            params={"transfer_bytes": "not-a-number", "horizon": 10.0},
        )
        with pytest.raises(ValueError):
            run_campaign(grid, workers=2)
        with pytest.raises(ValueError):
            run_campaign(grid, workers=1)
