"""The determinism regression net for the sweep engine and the simulator.

Two guarantees are pinned here:

1. A campaign's aggregated output is byte-identical whether cells run
   serially, on 2 workers, on 4 workers or at ``runner``'s default worker
   count — and whether results come from the on-disk cache or fresh runs.
2. Every netem scenario is trace-deterministic: two simulators built with
   the same seed produce identical packet traces, packet for packet.
"""

import os
import subprocess
import sys

import pytest

from tests.helpers import child_env
from repro.store import CampaignStore
from repro.sweep import SCENARIOS, CampaignGrid, run_campaign, run_cell
from repro.sweep.backends import usable_cpus


def acceptance_grid() -> CampaignGrid:
    """The ISSUE's acceptance matrix: 2 × 2 × 3 × 2 = 24 cells."""
    return CampaignGrid(
        name="acceptance",
        campaign_seed=42,
        experiments=["bulk_transfer"],
        scenarios=["dual_homed", "asymmetric_loss", "path_failure_recovery"],
        schedulers=["lowest_rtt", "round_robin"],
        controllers=["passive", "fullmesh"],
        seeds=2,
        params={"transfer_bytes": 120_000, "horizon": 20.0},
    )


def workload_acceptance_grid() -> CampaignGrid:
    """The heavier workloads (http, longlived) across the lossy scenarios."""
    return CampaignGrid(
        name="acceptance-workloads",
        campaign_seed=42,
        experiments=["http", "longlived"],
        scenarios=["dual_homed", "asymmetric_loss", "path_failure_recovery"],
        schedulers=["lowest_rtt"],
        controllers=["fullmesh", "userspace_fullmesh"],
        seeds=2,
        params={
            "request_count": 2,
            "object_size": 40_000,
            "message_interval": 2.0,
            "horizon": 15.0,
        },
    )


def fuzz_acceptance_grid() -> CampaignGrid:
    """Faulted scenario variants and their twins (the fuzz-cell contract)."""
    return CampaignGrid(
        name="acceptance-fuzz",
        campaign_seed=42,
        experiments=["bulk_transfer"],
        scenarios=["dual_homed", "faulted_dual_homed", "faulted_path", "faulted_lan", "lan"],
        schedulers=["lowest_rtt"],
        controllers=["fullmesh"],
        seeds=2,
        params={"transfer_bytes": 80_000, "horizon": 15.0},
    )


def downgrade_acceptance_grid() -> CampaignGrid:
    """MP_CAPABLE-interference scenarios next to their clean twin."""
    return CampaignGrid(
        name="acceptance-downgrade",
        campaign_seed=42,
        experiments=["bulk_transfer"],
        scenarios=[
            "dual_homed",
            "faulted_downgrade",
            "mpcapable_stripped",
            "mpcapable_stripped_synack",
        ],
        schedulers=["lowest_rtt"],
        controllers=["fullmesh"],
        seeds=2,
        params={"transfer_bytes": 60_000, "horizon": 15.0},
    )


def scale_acceptance_grid() -> CampaignGrid:
    """The connections scale axis: single- and 100-connection cells."""
    return CampaignGrid(
        name="acceptance-scale",
        campaign_seed=42,
        experiments=["bulk_transfer"],
        scenarios=["dual_homed"],
        schedulers=["lowest_rtt"],
        controllers=["passive"],
        connections=[1, 100],
        seeds=2,
        params={
            "transfer_bytes": 4_000,
            "horizon": 10.0,
            "trace_probe": False,
            "connection_stagger": 2.0,
        },
    )


def runner_sweep(store, *flags: str) -> tuple[str, list[str]]:
    """``runner sweep --grid quick --store STORE FLAGS`` as a fresh process:
    its header line and the report body below it, wall-clock footer dropped."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", "sweep", "--grid", "quick",
         "--store", str(store), *flags],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert done.returncode == 0, done.stderr
    header, *body = done.stdout.splitlines()
    return header, [line for line in body if not line.startswith("[sweep completed in ")]


def store_files(store: CampaignStore) -> dict[str, bytes]:
    """Every object file of a store, by name, plus its final manifest."""
    files = {}
    for name in os.listdir(store.objects_dir):
        with open(os.path.join(store.objects_dir, name), "rb") as handle:
            files[name] = handle.read()
    # One campaign, zero-padded sequence numbers: the last name is the final commit.
    final_manifest = max(os.listdir(store.manifests_dir))
    with open(os.path.join(store.manifests_dir, final_manifest), "rb") as handle:
        files[final_manifest] = handle.read()
    return files


class TestCampaignWorkerIndependence:
    def test_runner_default_workers_store_what_one_worker_stores(self, tmp_path):
        """``runner`` campaign commands default to every usable CPU, capped
        at the cells left to run; the store and the report body are the
        same bytes as ``--workers 1``."""
        default_header, default_body = runner_sweep(tmp_path / "default")
        serial_header, serial_body = runner_sweep(tmp_path / "serial", "--workers", "1")
        assert f"workers={min(usable_cpus(), 4)}," in default_header
        assert "workers=1," in serial_header
        assert default_body == serial_body
        default_store = CampaignStore(str(tmp_path / "default"))
        serial_store = CampaignStore(str(tmp_path / "serial"))
        assert len(default_store) == 4
        assert store_files(default_store) == store_files(serial_store)

    def test_serial_two_and_four_workers_are_byte_identical(self):
        grid = acceptance_grid()
        assert grid.cell_count == 24
        serial = run_campaign(grid, workers=1)
        two = run_campaign(grid, workers=2)
        four = run_campaign(grid, workers=4)
        assert serial.to_canonical_json() == two.to_canonical_json()
        assert serial.to_canonical_json() == four.to_canonical_json()

    def test_http_and_longlived_cells_are_worker_count_independent(self):
        """The unified harness keeps the byte-identity contract for the
        workloads it newly opened to the sweep engine."""
        grid = workload_acceptance_grid()
        assert grid.cell_count == 24
        serial = run_campaign(grid, workers=1)
        two = run_campaign(grid, workers=2)
        four = run_campaign(grid, workers=4)
        assert serial.to_canonical_json() == two.to_canonical_json()
        assert serial.to_canonical_json() == four.to_canonical_json()
        # Every cell actually carried traffic (no silently empty runs).
        for cell in serial.cells:
            assert cell.result["trace_packets"] > 0, cell.spec.key

    def test_fuzz_cells_and_triage_are_worker_count_independent(self):
        """Faulted cells derive their FaultPlan from the cell seed, so the
        campaign — and the triage report built from it — must be
        byte-identical at any worker count."""
        from repro.analysis.faults import triage_campaign, triage_json

        grid = fuzz_acceptance_grid()
        serial = run_campaign(grid, workers=1)
        two = run_campaign(grid, workers=2)
        four = run_campaign(grid, workers=4)
        assert serial.to_canonical_json() == two.to_canonical_json()
        assert serial.to_canonical_json() == four.to_canonical_json()
        assert triage_json(triage_campaign(serial)) == triage_json(triage_campaign(four))
        for cell in serial.cells:
            assert cell.result["trace_packets"] > 0, cell.spec.key
            if cell.spec.scenario.startswith("faulted"):
                assert cell.result["fault_events_scheduled"] > 0, cell.spec.key

    def test_downgrade_cells_are_worker_count_independent(self):
        """The acceptance criterion: a faulted cell whose plan strips
        MP_CAPABLE during the handshake completes with at least one
        fallback connection and nonzero goodput (triage verdict
        ``fallback``, not ``failed``), the clean twin stays untouched by
        the fallback machinery — and everything is byte-identical at 1 and
        4 workers."""
        from repro.analysis.faults import triage_campaign, triage_json

        grid = downgrade_acceptance_grid()
        serial = run_campaign(grid, workers=1)
        four = run_campaign(grid, workers=4)
        assert serial.to_canonical_json() == four.to_canonical_json()
        assert triage_json(triage_campaign(serial)) == triage_json(triage_campaign(four))

        for cell in serial.cells:
            scenario = cell.spec.scenario
            metrics = cell.result
            if scenario == "dual_homed":
                # The clean twin carries no fallback metrics at all.
                assert "fallback_connections" not in metrics, cell.spec.key
                continue
            assert metrics["fallback_connections"] >= 1, cell.spec.key
            assert metrics["goodput_mbps"] > 0, cell.spec.key
            if scenario == "faulted_downgrade":
                # The curated plan actually fired its MP_CAPABLE strip.
                assert metrics["fault_options_stripped"] > 0, cell.spec.key

        triage = triage_campaign(serial)
        verdicts = {row["key"]: row["verdict"] for row in triage["rows"]}
        assert verdicts and all(verdict == "fallback" for verdict in verdicts.values()), verdicts

    def test_scale_cells_are_worker_count_independent(self):
        """The scale-axis acceptance criterion: 100-connection cells are
        byte-identical at 1 and 4 workers, carry the bounded ``agg_*``
        summary metrics, and the single-connection cells riding in the
        same campaign stay entirely free of them."""
        grid = scale_acceptance_grid()
        assert grid.cell_count == 4
        serial = run_campaign(grid, workers=1)
        four = run_campaign(grid, workers=4)
        assert serial.to_canonical_json() == four.to_canonical_json()

        for cell in serial.cells:
            metrics = cell.result
            if cell.spec.connections == 1:
                assert not any(name.startswith("agg_") for name in metrics), cell.spec.key
                assert "/conn" not in cell.spec.key
                continue
            assert cell.spec.key.endswith("/conn100")
            assert metrics["agg_connections"] == 100, cell.spec.key
            assert metrics["agg_connections_started"] == 100, cell.spec.key
            assert metrics["agg_goodput_mbps_sum"] > 0, cell.spec.key
            assert metrics["connections_initiated"] == 100, cell.spec.key
            # All 100 tiny transfers complete within the horizon.
            assert metrics["bytes_delivered"] == 100 * 4_000, cell.spec.key

    def test_cached_rerun_is_byte_identical_and_all_hits(self, tmp_path):
        grid = acceptance_grid()
        first = run_campaign(grid, workers=4, store_dir=str(tmp_path))
        assert first.cache_misses == 24
        second = run_campaign(grid, workers=4, store_dir=str(tmp_path))
        assert second.cache_hits == 24 and second.cache_misses == 0
        assert first.to_canonical_json() == second.to_canonical_json()

    def test_campaign_seed_changes_results(self):
        grid_a = acceptance_grid()
        grid_b = acceptance_grid()
        grid_b.campaign_seed = 43
        a = run_campaign(grid_a, workers=1)
        b = run_campaign(grid_b, workers=1)
        digests_a = [cell.result["trace_digest"] for cell in a.cells]
        digests_b = [cell.result["trace_digest"] for cell in b.cells]
        assert digests_a != digests_b


#: Small per-workload parameters for the per-cell determinism checks.
CELL_PARAMS = {
    "bulk_transfer": {"transfer_bytes": 50_000, "horizon": 12.0},
    "streaming": {"block_count": 3, "horizon": 12.0},
    "http": {"request_count": 2, "object_size": 30_000, "horizon": 12.0},
    "longlived": {"message_interval": 2.0, "horizon": 12.0},
}


def _cell_spec(experiment: str, scenario: str) -> dict:
    return {
        "experiment": experiment,
        "scenario": scenario,
        "scheduler": "lowest_rtt",
        "controller": "fullmesh",
        "seed_index": 0,
        "params": CELL_PARAMS[experiment],
    }


class TestScenarioTraceDeterminism:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_same_seed_same_trace(self, scenario):
        spec = _cell_spec("bulk_transfer", scenario)
        first = run_cell(spec, 9)
        second = run_cell(spec, 9)
        assert first == second
        assert first["trace_digest"] == second["trace_digest"]
        assert first["trace_packets"] > 0

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_different_seed_different_trace(self, scenario):
        spec = _cell_spec("bulk_transfer", scenario)
        assert run_cell(spec, 9)["trace_digest"] != run_cell(spec, 10)["trace_digest"]


class TestWorkloadTraceDeterminism:
    """Every workload's cells replay exactly, on every scenario."""

    @pytest.mark.parametrize("experiment", ["streaming", "http", "longlived"])
    @pytest.mark.parametrize(
        "scenario", ["dual_homed", "asymmetric_loss", "path_failure_recovery"]
    )
    def test_same_seed_same_trace(self, experiment, scenario):
        spec = _cell_spec(experiment, scenario)
        first = run_cell(spec, 9)
        second = run_cell(spec, 9)
        assert first == second
        assert first["trace_packets"] > 0

    @pytest.mark.parametrize("experiment", ["streaming", "http", "longlived"])
    def test_different_seed_different_trace(self, experiment):
        spec = _cell_spec(experiment, "dual_homed")
        assert run_cell(spec, 9)["trace_digest"] != run_cell(spec, 10)["trace_digest"]
