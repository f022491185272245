"""Tests for the campaign regression gate: baselines, diffing, the CLI.

The acceptance surface of the diff subsystem: snapshots round-trip through
the committed-file format, ``diff(c, c)`` is empty at any worker count,
tolerances treat boundary equality as within, NaN/missing metrics and
disjoint grids degrade to reported (not crashed-on) differences, and the
``runner diff`` subcommand exits non-zero naming the drifted cell.
"""

import json
import math

import pytest

from repro.experiments import runner
from repro.sweep import (
    BASELINE_FORMAT_VERSION,
    DEFAULT_TOLERANCES,
    DIFF_FORMAT_VERSION,
    Baseline,
    BaselineCell,
    CampaignGrid,
    Tolerance,
    baseline_from_store,
    diff_campaigns,
    format_diff_report,
    load_baseline,
    metric_family,
    run_campaign,
    write_baseline,
)
from repro.sweep.diff import diff_cell


def tiny_grid(**overrides) -> CampaignGrid:
    defaults = dict(
        name="tiny",
        campaign_seed=11,
        experiments=["bulk_transfer"],
        scenarios=["dual_homed"],
        schedulers=["lowest_rtt"],
        controllers=["passive", "fullmesh"],
        seeds=1,
        params={"transfer_bytes": 40_000, "horizon": 10.0},
    )
    defaults.update(overrides)
    return CampaignGrid(**defaults)


def synthetic_baseline(metrics_by_key: dict, name="synthetic", seed=1) -> Baseline:
    return Baseline(
        name=name,
        campaign_seed=seed,
        cells=[
            BaselineCell(
                key=key,
                spec={
                    "experiment": "bulk_transfer",
                    "scenario": key.split("/")[1],
                    "scheduler": "lowest_rtt",
                    "controller": "passive",
                    "seed_index": 0,
                    "params": {},
                },
                config_hash=f"hash-{key}",
                metrics=metrics,
            )
            for key, metrics in metrics_by_key.items()
        ],
    )


KEY_A = "bulk_transfer/dual_homed/lowest_rtt/passive/seed0"
KEY_B = "bulk_transfer/natted/lowest_rtt/passive/seed0"
KEY_C = "bulk_transfer/lan/lowest_rtt/passive/seed0"


class TestMetricFamilies:
    def test_family_classification(self):
        assert metric_family("goodput_mbps") == "goodput"
        assert metric_family("trace_data_bytes") == "bytes"
        assert metric_family("bytes_delivered") == "bytes"
        assert metric_family("app_latency_mean") == "latency"
        assert metric_family("completion_time") == "latency"
        assert metric_family("block_delay_mean") == "latency"
        assert metric_family("events_processed") == "events"
        assert metric_family("trace_packets") == "events"
        assert metric_family("subflows_created") == "counts"
        assert metric_family("messages_delivered") == "counts"
        assert metric_family("connections_initiated") == "counts"
        # Every count-like metric a registered workload emits is exact.
        assert metric_family("requests_started") == "counts"
        assert metric_family("late_blocks") == "counts"
        assert metric_family("blocks_delivered") == "counts"
        assert metric_family("app_samples") == "counts"

    def test_every_family_has_a_default_tolerance(self):
        for metric in ("goodput_mbps", "completion_time", "trace_data_bytes",
                       "events_processed", "subflows_used", "mystery_metric"):
            assert metric_family(metric) in DEFAULT_TOLERANCES


class TestTolerance:
    def test_boundary_equality_is_within(self):
        # abs delta exactly equal to abs tolerance: inclusive.
        assert Tolerance(rel=0.0, abs=0.5).within(1.0, 1.5)
        assert not Tolerance(rel=0.0, abs=0.5).within(1.0, 1.5000001)
        # rel delta exactly equal to rel tolerance: inclusive (isclose
        # measures against the larger magnitude).
        assert Tolerance(rel=0.1, abs=0.0).within(90.0, 100.0)
        assert not Tolerance(rel=0.1, abs=0.0).within(89.0, 100.0)

    def test_exact_tolerance_means_equality(self):
        tolerance = Tolerance()
        assert tolerance.within(3.0, 3.0)
        assert not tolerance.within(3.0, 3.0000001)

    def test_both_nan_is_within(self):
        assert Tolerance().within(math.nan, math.nan)
        assert not Tolerance(rel=1.0, abs=1.0).within(math.nan, 1.0)


class TestCellDiff:
    def diff(self, left, right, tolerances=None):
        return diff_cell(
            key=KEY_A,
            spec={"scenario": "dual_homed"},
            left_metrics=left,
            right_metrics=right,
            tolerances=tolerances if tolerances is not None else DEFAULT_TOLERANCES,
        )

    def test_identical_metrics_produce_no_deltas(self):
        metrics = {"goodput_mbps": 1.5, "trace_digest": "abc", "subflow_bytes": {"1": 2}}
        assert self.diff(metrics, dict(metrics)).identical

    def test_within_tolerance_is_changed_but_not_gating(self):
        cell = self.diff({"goodput_mbps": 100.0}, {"goodput_mbps": 101.0})
        assert not cell.identical
        assert not cell.out_of_tolerance
        (delta,) = cell.deltas
        assert delta.within and delta.gating

    def test_out_of_tolerance_numeric_drift(self):
        cell = self.diff({"goodput_mbps": 100.0}, {"goodput_mbps": 50.0})
        (delta,) = cell.out_of_tolerance
        assert delta.metric == "goodput_mbps"
        assert delta.rel_delta == pytest.approx(0.5)
        assert delta.abs_delta == pytest.approx(50.0)

    def test_counts_are_exact(self):
        cell = self.diff({"subflows_created": 4}, {"subflows_created": 5})
        assert cell.out_of_tolerance

    def test_missing_metric_on_either_side_is_gating(self):
        for left, right in (
            ({"goodput_mbps": 1.0}, {}),
            ({}, {"goodput_mbps": 1.0}),
            ({"goodput_mbps": None}, {"goodput_mbps": 1.0}),
        ):
            cell = self.diff(left, right)
            assert cell.out_of_tolerance, (left, right)

    def test_both_none_is_identical(self):
        assert self.diff({"app_latency_mean": None}, {"app_latency_mean": None}).identical

    def test_nan_pairs(self):
        both = self.diff({"goodput_mbps": math.nan}, {"goodput_mbps": math.nan})
        assert both.identical
        one = self.diff({"goodput_mbps": math.nan}, {"goodput_mbps": 1.0})
        assert one.out_of_tolerance

    def test_digest_change_is_informational(self):
        cell = self.diff({"trace_digest": "aaa"}, {"trace_digest": "bbb"})
        assert not cell.identical
        assert not cell.out_of_tolerance
        (delta,) = cell.deltas
        assert not delta.gating

    def test_structured_metric_change_is_informational(self):
        cell = self.diff({"subflow_bytes": {"1": 10}}, {"subflow_bytes": {"1": 20}})
        assert not cell.identical and not cell.out_of_tolerance

    def test_number_to_string_type_drift_is_gating(self):
        # A serialization regression turning a number into its string
        # must trip the gate even though "6.87" != 6.87 compares unequal.
        cell = self.diff({"goodput_mbps": 6.87}, {"goodput_mbps": "6.87"})
        assert cell.out_of_tolerance

    def test_number_to_bool_drift_is_gating_not_identical(self):
        # 1 == True in Python; the diff must not read that as identical.
        cell = self.diff({"subflows_used": 1}, {"subflows_used": True})
        assert not cell.identical
        assert cell.out_of_tolerance

    def test_per_metric_tolerance_overrides_family(self):
        tolerances = {**DEFAULT_TOLERANCES, "goodput_mbps": Tolerance(rel=0.9)}
        cell = self.diff({"goodput_mbps": 100.0}, {"goodput_mbps": 20.0}, tolerances)
        assert not cell.out_of_tolerance


class TestDisjointAndPartialGrids:
    def test_disjoint_grids_match_nothing_and_fail_the_gate(self):
        left = synthetic_baseline({KEY_A: {"goodput_mbps": 1.0}})
        right = synthetic_baseline({KEY_B: {"goodput_mbps": 1.0}})
        diff = diff_campaigns(left, right)
        assert diff.matched == []
        assert diff.left_only == [KEY_A]
        assert diff.right_only == [KEY_B]
        assert not diff.gate_ok and not diff.identical
        report = format_diff_report(diff)
        assert KEY_A in report and KEY_B in report

    def test_intersection_is_compared_and_extras_reported(self):
        left = synthetic_baseline({KEY_A: {"goodput_mbps": 1.0}, KEY_B: {"goodput_mbps": 2.0}})
        right = synthetic_baseline({KEY_B: {"goodput_mbps": 2.0}, KEY_C: {"goodput_mbps": 3.0}})
        diff = diff_campaigns(left, right)
        assert [cell.key for cell in diff.matched] == [KEY_B]
        assert diff.matched[0].identical
        assert diff.left_only == [KEY_A] and diff.right_only == [KEY_C]
        assert not diff.gate_ok  # misaligned grids are never a clean gate

    def test_config_mismatch_fails_the_gate_even_with_identical_metrics(self):
        # Same grid key, different config hash (changed params/seed): the
        # two sides ran different experiments under the same name, so the
        # gate must fail even though the metrics happen to match.
        left = synthetic_baseline({KEY_A: {"goodput_mbps": 1.0}})
        right = synthetic_baseline({KEY_A: {"goodput_mbps": 1.0}})
        object.__setattr__(right.cells[0], "config_hash", "other-hash")
        diff = diff_campaigns(left, right)
        assert [cell.key for cell in diff.config_mismatched_cells] == [KEY_A]
        assert not diff.matched[0].out_of_tolerance
        assert not diff.gate_ok and not diff.identical
        assert json.loads(diff.to_json())["summary"]["config_mismatched"] == [KEY_A]
        assert "config-mismatched" in format_diff_report(diff)


class TestSelfDiff:
    def test_self_diff_is_empty_at_any_worker_count(self, tmp_path):
        """diff(c, c) is empty — serial, parallel, stored, or snapshotted."""
        grid = tiny_grid()
        serial = run_campaign(grid, workers=1, store_dir=str(tmp_path / "store"))
        parallel = run_campaign(grid, workers=2, store_dir=str(tmp_path / "store"))
        snapshot = write_baseline(serial, str(tmp_path / "base.json"))
        reloaded = load_baseline(str(tmp_path / "base.json"))
        stored = baseline_from_store(grid, str(tmp_path / "store"))
        for left in (serial, parallel, snapshot, reloaded, stored):
            for right in (serial, parallel, reloaded, stored):
                diff = diff_campaigns(left, right)
                assert diff.identical and diff.gate_ok
        # The machine JSON of an empty diff is canonical and parseable.
        payload = json.loads(diff_campaigns(serial, serial).to_json())
        assert payload["diff_format_version"] == DIFF_FORMAT_VERSION
        assert payload["summary"]["gate_ok"] is True
        assert payload["cells"] == []


class TestBaselineFormat:
    def test_round_trip_preserves_cells(self, tmp_path):
        result = run_campaign(tiny_grid(), workers=1)
        path = str(tmp_path / "baseline.json")
        written = write_baseline(result, path)
        loaded = load_baseline(path)
        assert loaded.name == written.name == "tiny"
        assert loaded.campaign_seed == 11
        assert [cell.key for cell in loaded.cells] == [cell.key for cell in written.cells]
        assert loaded.cells[0].metrics == written.cells[0].metrics
        # Key order in the file is sorted, regardless of grid order.
        assert [cell.key for cell in loaded.cells] == sorted(
            cell.key for cell in loaded.cells
        )

    def test_written_file_is_deterministic(self, tmp_path):
        result = run_campaign(tiny_grid(), workers=1)
        write_baseline(result, str(tmp_path / "a.json"))
        write_baseline(result, str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_unsupported_version_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "baseline_format_version": BASELINE_FORMAT_VERSION + 1,
            "name": "x", "campaign_seed": 1, "cells": [],
        }))
        with pytest.raises(ValueError, match="baseline format version"):
            load_baseline(str(path))

    def test_duplicate_cell_keys_are_rejected(self):
        cell = BaselineCell(key=KEY_A, spec={}, config_hash="h", metrics={})
        with pytest.raises(ValueError, match="duplicate"):
            Baseline(name="x", campaign_seed=1, cells=[cell, cell])

    def test_store_loading_requires_every_cell(self, tmp_path):
        grid = tiny_grid()
        run_campaign(grid, workers=1, store_dir=str(tmp_path))
        bigger = tiny_grid(scenarios=["dual_homed", "asymmetric_loss"])
        with pytest.raises(ValueError, match="missing 2 of 4"):
            baseline_from_store(bigger, str(tmp_path))

    def test_diff_rejects_unknown_campaign_shapes(self):
        with pytest.raises(TypeError, match="cannot diff"):
            diff_campaigns([1, 2, 3], synthetic_baseline({}))


class TestDeltaStats:
    def make_diff(self):
        left = synthetic_baseline({
            KEY_A: {"goodput_mbps": 100.0, "completion_time": 1.0},
            KEY_B: {"goodput_mbps": 100.0, "completion_time": 1.0},
        })
        right = synthetic_baseline({
            KEY_A: {"goodput_mbps": 50.0, "completion_time": 1.0},
            KEY_B: {"goodput_mbps": 100.0, "completion_time": 1.02},
        })
        return diff_campaigns(left, right)

    def test_worst_cell_deltas_rank_by_relative_drift(self):
        from repro.analysis.deltas import worst_cell_deltas

        ranked = worst_cell_deltas(self.make_diff().matched)
        assert ranked[0][0] == KEY_A and ranked[0][1] == "goodput_mbps"
        assert ranked[0][2] == pytest.approx(0.5)
        assert ranked[1][0] == KEY_B

    def test_summarize_drift_by_axis(self):
        from repro.analysis.deltas import summarize_drift_by_axis

        summaries = summarize_drift_by_axis(self.make_diff().matched, by=("scenario",))
        assert summaries[("dual_homed",)].maximum == pytest.approx(0.5)
        assert summaries[("natted",)].count == 1

    def test_out_of_tolerance_counts_by_axis(self):
        from repro.analysis.deltas import out_of_tolerance_counts_by_axis

        counts = out_of_tolerance_counts_by_axis(self.make_diff().matched, by=("scenario",))
        assert counts[("dual_homed",)] == 1
        assert counts[("natted",)] == 0  # 2% completion_time drift is within 5%

    def test_missing_metric_outranks_small_numeric_drift_in_same_cell(self):
        from repro.analysis.deltas import worst_cell_deltas

        # A vanished metric must rank inf even when the cell also has a
        # tiny finite delta that would otherwise bury it under a limit.
        left = synthetic_baseline({KEY_A: {"goodput_mbps": 100.0, "app_samples": 3}})
        right = synthetic_baseline({KEY_A: {"goodput_mbps": 100.1}})
        (row,) = worst_cell_deltas(diff_campaigns(left, right).matched)
        assert row == (KEY_A, "app_samples", math.inf)

    def test_no_finite_delta_cell_names_the_gating_metric(self):
        from repro.analysis.deltas import worst_cell_deltas

        # One informational change (sorts first) plus one gating missing
        # metric: the inf rank must be attributed to the gating one.
        left = synthetic_baseline({KEY_A: {"subflow_bytes": {"1": 1}, "trace_packets": 7}})
        right = synthetic_baseline({KEY_A: {"subflow_bytes": {"1": 2}}})
        (row,) = worst_cell_deltas(diff_campaigns(left, right).matched)
        assert row == (KEY_A, "trace_packets", math.inf)

    def test_unknown_axis_is_rejected(self):
        from repro.analysis.deltas import summarize_drift_by_axis

        with pytest.raises(ValueError, match="unknown grouping axis"):
            summarize_drift_by_axis([], by=("flavour",))


class TestRunnerRegressionGate:
    """The acceptance criterion: runner diff exits 0 clean, 1 on drift."""

    def run_quick_baseline(self, tmp_path, capsys):
        baseline_path = str(tmp_path / "quick.json")
        store_dir = str(tmp_path / "store")
        assert runner.main([
            "baseline", "--grid", "quick", "--store", store_dir,
            "--out", baseline_path,
        ]) == 0
        capsys.readouterr()
        return baseline_path, store_dir

    def test_clean_diff_exits_zero(self, tmp_path, capsys):
        baseline_path, store_dir = self.run_quick_baseline(tmp_path, capsys)
        json_path = str(tmp_path / "diff.json")
        code = runner.main([
            "diff", "--baseline", baseline_path, "--grid", "quick",
            "--store", store_dir, "--json", json_path,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "no out-of-tolerance drift" in out
        payload = json.loads((tmp_path / "diff.json").read_text())
        assert payload["summary"]["gate_ok"] is True

    def test_perturbed_stored_cell_fails_and_is_named(self, tmp_path, capsys):
        baseline_path, store_dir = self.run_quick_baseline(tmp_path, capsys)
        # Perturb one stored cell's goodput well beyond the 5% tolerance.
        import glob

        cell_path = sorted(glob.glob(f"{store_dir}/objects/*.json"))[0]
        entry = json.loads(open(cell_path).read())
        entry["result"]["goodput_mbps"] *= 2
        with open(cell_path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        perturbed_key = (
            f"{entry['spec']['experiment']}/{entry['spec']['scenario']}/"
            f"{entry['spec']['scheduler']}/{entry['spec']['controller']}/"
            f"seed{entry['spec']['seed_index']}"
        )

        json_path = str(tmp_path / "diff.json")
        code = runner.main([
            "diff", "--baseline", baseline_path, "--grid", "quick",
            "--store", store_dir, "--from-store", "--json", json_path,
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert perturbed_key in out
        assert "goodput_mbps" in out
        payload = json.loads((tmp_path / "diff.json").read_text())
        assert payload["summary"]["out_of_tolerance"] == [perturbed_key]

    def test_diff_defaults_grid_and_seed_to_the_snapshot(self, tmp_path, capsys):
        # `diff --baseline baselines/quick.json` alone must gate against
        # the quick grid at the snapshot's seed, not the 24-cell default.
        baseline_path, store_dir = self.run_quick_baseline(tmp_path, capsys)
        code = runner.main([
            "diff", "--baseline", baseline_path, "--store", store_dir,
            "--from-store",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 identical" in out

    def test_baseline_requires_an_explicit_grid(self, tmp_path):
        with pytest.raises(SystemExit):
            runner.main(["baseline", "--out", str(tmp_path / "x.json")])

    def test_diff_of_two_snapshot_files(self, tmp_path, capsys):
        baseline_path, _ = self.run_quick_baseline(tmp_path, capsys)
        assert runner.main([
            "diff", "--baseline", baseline_path, "--candidate", baseline_path,
        ]) == 0
        assert "4 identical" in capsys.readouterr().out

    def test_candidate_conflicts_with_run_flags(self, tmp_path, capsys):
        baseline_path, store_dir = self.run_quick_baseline(tmp_path, capsys)
        for extra in (["--grid", "quick"], ["--from-store"],
                      ["--store", store_dir], ["--seed", "2"]):
            with pytest.raises(SystemExit, match="conflicts"):
                runner.main(["diff", "--baseline", baseline_path,
                             "--candidate", baseline_path, *extra])


class TestCommittedQuickBaseline:
    """The repo's own gate: baselines/quick.json matches a fresh quick run."""

    def test_committed_baseline_is_reproduced_bit_for_bit(self):
        import os

        from repro.experiments.grids import quick_grid

        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "baselines", "quick.json")
        committed = load_baseline(path)
        fresh = run_campaign(quick_grid(), workers=1)
        diff = diff_campaigns(committed, fresh)
        assert diff.gate_ok, format_diff_report(diff)
        assert diff.identical, format_diff_report(diff)
