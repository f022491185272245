"""Smoke tests of the benchmark itself (collected by the tier-1 run).

They run every code path of ``bench`` on cells scaled down fifty-fold
through the internal ``scale`` hook, so what is checked is the plumbing —
declared names, result shape, and that the correctness checks trip — not
any timing.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from bench import ROOT, declaration
from bench.calibrate import REFERENCE_S, normalised, reference_seconds
from bench.child import run_timed, run_traced
from bench.measure import contract_line, measure, reduce_samples
from bench.trace import Tracer
from bench.workloads import (
    Outcome,
    StorePhase,
    build_workloads,
    judge_cell,
    report_body,
    tiny_cell_delivered,
)

SCALE = 0.02
SPEC = declaration()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
IN_PROCESS = [name for name, workload in build_workloads().items() if workload.in_process]


def test_declaration_matches_the_code():
    assert WORKLOADS == list(build_workloads())
    names = WORKLOADS + [
        metric["name"] for kind in ("end_to_end", "per_layer") for metric in SPEC[kind]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert "setup_s" in {metric["name"] for metric in SPEC["end_to_end"]}
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    assert all(len(workload["why"]) <= 200 for workload in SPEC["workloads"])


def test_interaction_table_covers_every_layer_metric():
    with open(os.path.join(ROOT, "bench", "interactions.json"), encoding="utf-8") as handle:
        rows = json.load(handle)["interactions"]
    assert [row["metric"] for row in rows] == [metric["name"] for metric in SPEC["per_layer"]]
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    for row in rows:
        for move in row["moves"]:
            assert move["metric"] in end_to_end, row
            assert move["workload"] in WORKLOADS + ["*"], row


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_specs_validate_against_the_registries(name):
    build_workloads()[name].validate()


@pytest.mark.parametrize("name", IN_PROCESS)
def test_scaled_in_process_workload_passes_its_checks(name, tmp_path):
    payload = run_timed(build_workloads()[name], 33, 0.0, SCALE, str(tmp_path))
    assert payload["problems"] == []
    assert payload["failed"] == 0 and payload["attempted"] >= 3
    assert payload["events"] > 0 and [len(part) for part in payload["samples"].values()] == [3]


def test_timed_run_emits_exactly_the_end_to_end_metrics():
    result = measure("campaign_store", 33, 0.0, trace=False, scale=SCALE, setup_repeats=2)
    assert result["correct"], result["detail"]["problems"]
    assert list(result["detail"]["parts"]) == ["cold", "warm", "resume"]
    line = json.loads(contract_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]
    }
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_traced_run_emits_exactly_the_per_layer_metrics(tmp_path):
    workload = build_workloads()["lossy_http_userspace"]
    payload = run_traced(workload, 33, SCALE, str(tmp_path))
    assert payload["problems"] == []
    assert set(payload["metrics"]) == {metric["name"] for metric in SPEC["per_layer"]}
    assert payload["metrics"]["core.msgs"] > 0
    assert {"setup", "sweep.run_cell", "layers"} <= {span["name"] for span in payload["spans"]}


def test_bytes_delivered_check_trips_on_a_short_cell():
    spec = build_workloads()["bulk_steady"]._full_spec
    good = {"bytes_delivered": 8_000_000, "app_samples": 1, "events_processed": 10}
    assert judge_cell(spec, good).failed == 0
    short = judge_cell(spec, {**good, "bytes_delivered": 7_999_999})
    assert short.failed == 1 and short.problems
    assert short.identity != judge_cell(spec, good).identity
    assert judge_cell(spec, {**good, "app_samples": 0}).failed == 1
    assert not tiny_cell_delivered("bulk_transfer", {"bytes_delivered": 0})


def test_byte_identity_check_trips_when_a_repeat_differs(tmp_path):
    class Drifting:
        """A workload whose third repeat returns a different simulated result."""

        name, in_process = "drifting", True

        def __init__(self):
            self.calls = 0
            self.parts = [self]

        def prepare(self, seed, tmp, tracer, scale):
            pass

        def warm_up(self):
            pass

        def fixture(self):
            return None

        def work(self, fixture):
            self.calls += 1
            return "same" if self.calls < 3 else "different"

        def judge(self, output):
            return Outcome(attempted=4, failed=0, events=1, identity=output)

        def release(self, fixture):
            pass

        def events_of(self, outcome, fixture):
            return outcome.events

        def finish(self, fixture):
            return []

    payload = run_timed(Drifting(), 1, 0.0, 1.0, str(tmp_path))
    assert payload["attempted"] == 12 and payload["failed"] == 4
    assert any("differs from repeat 0" in problem for problem in payload["problems"])


def test_cli_report_checks_trip_on_a_corrupted_report(tmp_path):
    phase = StorePhase("resume")
    phase.prepare(33, str(tmp_path), Tracer(), SCALE)
    report = (
        "campaign 'quick' (seed 33): 4 cells, 2 cached / 2 computed, workers=1, wall time 0.0s\n"
        "\n[bulk_transfer] completion_time\nrow 1\n[sweep completed in 0.1s wall clock]\n\n"
    )
    assert report_body(report)[1] == "\n[bulk_transfer] completion_time\nrow 1"
    assert phase.judge((0, report)).failed == 0
    assert phase.judge((0, report.replace("wall time 0.0s", "wall time 9.9s"))).failed == 0
    assert phase.judge((0, report.replace("row 1", "row 2"))).failed == 4
    assert phase.judge((0, report.replace("2 cached / 2", "0 cached / 4"))).failed == 4
    assert phase.judge((1, "Traceback")).failed == 4


def test_samples_are_reported_in_reference_machine_seconds():
    assert reference_seconds() > 0
    # Twice as slow a machine doubles sample and loop alike: the same result.
    assert normalised(3.0, 2 * REFERENCE_S) == pytest.approx(normalised(1.5, REFERENCE_S))
    reduced = reduce_samples([(1.0, REFERENCE_S), (2.6, 2 * REFERENCE_S), (1.2, REFERENCE_S)])
    assert reduced["value"] == pytest.approx(1.2) and reduced["n"] == 3
    assert reduced["raw_median"] == 1.2 and reduced["raw_max"] == 2.6
