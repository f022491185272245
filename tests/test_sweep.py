"""Unit tests for the sweep subsystem: grids, cells, engine, report."""

import gc
import json
import os
import time
import tracemalloc

import pytest

from repro.mptcp.scheduler import SCHEDULER_REGISTRY
from repro.sweep import (
    CONTROLLERS,
    EXPERIMENTS,
    SCENARIOS,
    CampaignGrid,
    CampaignResult,
    CellOutcome,
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


def failing_first_cell(spec: dict, campaign_seed: int) -> dict:
    """Pool stand-in for ``run_cell_with_telemetry``: cell 0 raises at once;
    every other cell takes 0.2 s, then leaves a marker file named after it."""
    if spec["seed_index"] == 0:
        raise ValueError("cell 0 failed")
    time.sleep(0.2)
    open(os.path.join(spec["params"]["marker_dir"], str(spec["seed_index"])), "w").close()
    telemetry = {"wall_time_s": 0.2, "sim_events": 0, "events_per_s": 0.0}
    return {"result": {}, "telemetry": telemetry}


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


class TestCellGc:
    """``run_cell`` pauses the cyclic GC for the whole cell and resumes it
    only after the finished run is dropped."""

    @pytest.fixture
    def gc_restored(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_is_left_as_found(self, gc_restored, enabled):
        spec = tiny_grid().expand()[0].as_dict()
        gc.enable() if enabled else gc.disable()
        run_cell(spec, 1)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_is_left_as_found_when_the_cell_raises(self, gc_restored, monkeypatch, enabled):
        from repro.sweep import cells

        paused = []

        def failing_run(self, spec):
            paused.append(not gc.isenabled())
            raise RuntimeError("cell failed")

        monkeypatch.setattr(cells.Harness, "run", failing_run)
        spec = tiny_grid().expand()[0].as_dict()
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError, match="cell failed"):
            run_cell(spec, 1)
        assert paused == [True]
        assert gc.isenabled() is enabled

    def test_the_dead_cell_goes_in_one_young_collection(self, gc_restored, monkeypatch):
        import weakref

        from repro.workloads import harness

        sims = []

        class WatchedSimulator(harness.Simulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sims.append(weakref.ref(self))

        monkeypatch.setattr(harness, "Simulator", WatchedSimulator)
        gc.enable()
        gc.collect()
        run_cell(tiny_grid(controllers=["fullmesh"]).expand()[0].as_dict(), 1)
        (sim,) = sims
        gc.collect(0)
        assert sim() is None


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
        assert fallen_back.notes == [
            "process pool unavailable on this platform (cannot start a worker pool: "
            "no process pool in this sandbox); cells ran serially instead"
        ]
        assert fallen_back.to_canonical_json() == serial.to_canonical_json()

    def test_a_failing_cell_stops_the_pool(self, monkeypatch, tmp_path):
        """The first failure aborts the campaign: the cells still queued are
        dropped, not computed for nobody, and the cell's own error
        propagates (no serial re-run)."""
        from repro.sweep import cells

        monkeypatch.setattr(cells, "run_cell_with_telemetry", failing_first_cell)
        grid = tiny_grid(seeds=12, params={"marker_dir": str(tmp_path)})
        workers = 2
        with pytest.raises(ValueError, match="^cell 0 failed$"):
            run_campaign(grid, workers=workers, backend="pool")
        computed = os.listdir(tmp_path)
        assert len(computed) <= workers, sorted(computed, key=int)

    def test_metric_values_skip_incomplete_cells(self):
        grid = tiny_grid()
        result = run_campaign(grid, workers=1)
        values = result.metric_values("completion_time")
        assert values and all(value > 0 for value in values)


def hand_built_campaign(cell_count: int, name: str = "hand-built") -> CampaignResult:
    """A campaign of ``cell_count`` cells whose results hold non-ASCII text,
    ``None`` and non-finite floats, built without running anything."""
    cells = []
    for index in range(cell_count):
        spec = CellSpec(
            "bulk_transfer", "dual_homed", "lowest_rtt", "passive", index,
            params=(("transfer_bytes", 40_000), ("label", "débit ↑")),
        )  # fmt: skip
        result = {
            "goodput_mbps": 9.5 + index / 7,
            "completion_time": None if index % 3 else 0.25 * index,
            "rtt_max": float("inf") if index % 5 == 0 else 0.031,
            "loss": float("nan"),
            "note": "sous-flux fermé",
            "samples": [index * 0.001 * step for step in range(8)],
            "events_processed": 70 + index,
        }
        cells.append(CellOutcome(spec, f"{index:064x}", result, cached=False))
    return CampaignResult(name, 42, cells, workers_requested=1, workers_used=1)


def one_dumps(result: CampaignResult) -> str:
    """The canonical JSON as one ``json.dumps`` over the whole payload."""
    payload = {
        "name": result.name,
        "campaign_seed": result.campaign_seed,
        "cells": [
            {"spec": cell.spec.as_dict(), "config_hash": cell.config_hash, "result": cell.result}
            for cell in result.cells
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestCanonicalJson:
    @pytest.mark.parametrize("cell_count", [0, 1, 12])
    def test_it_is_one_dumps_of_the_payload(self, cell_count):
        result = hand_built_campaign(cell_count, name="campagne « été » ∞")
        canonical = result.to_canonical_json()
        assert canonical == one_dumps(result)
        assert json.loads(canonical)["name"] == "campagne « été » ∞"

    def test_a_run_campaign_matches_too(self):
        result = run_campaign(tiny_grid(controllers=["passive", "fullmesh"]), workers=1)
        assert result.to_canonical_json() == one_dumps(result)

    def test_its_peak_stays_near_the_output_size(self):
        """Encoded cell by cell, the transient peak is about twice the
        output; one ``json.dumps`` over this payload held 8.5 times."""
        result = hand_built_campaign(256)
        tracemalloc.start()
        try:
            canonical = result.to_canonical_json()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(canonical)


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
        monkeypatch.setattr(runner, "_run_figure", lambda name, args: ran.append(name) or "")
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
        [note] = result.notes
        assert "lacks a functioning sem_open implementation" in note

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
