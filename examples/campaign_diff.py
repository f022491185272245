#!/usr/bin/env python3
"""The regression gate in miniature: snapshot, perturb, diff.

Runs the quick campaign grid, snapshots it to a baseline file, then diffs
a fresh run against the snapshot twice — once unchanged (the gate passes:
the simulation is deterministic, so the diff is empty) and once with one
cell's goodput perturbed beyond tolerance (the gate trips and names the
cell).  This is exactly what the `sweep-smoke` CI job's diff gate does
against the committed ``baselines/quick.json``.

Run with:  python examples/campaign_diff.py
"""

import copy
import sys

from repro.experiments.grids import named_grid
from repro.sweep import (
    Baseline,
    diff_campaigns,
    format_diff_report,
    run_campaign,
)


def main() -> int:
    result = run_campaign(named_grid("quick"), workers=2)
    reference = Baseline.from_result(result, source="snapshot")

    print("=== clean diff: fresh run vs. snapshot of the same code ===")
    clean = diff_campaigns(reference, run_campaign(named_grid("quick"), workers=1))
    print(format_diff_report(clean))
    assert clean.identical, "deterministic reruns must diff empty"

    print()
    print("=== perturbed diff: one cell's goodput doubled ===")
    perturbed = copy.deepcopy(reference)
    perturbed.cells[0].metrics["goodput_mbps"] *= 2
    drifted = diff_campaigns(reference, perturbed)
    print(format_diff_report(drifted))
    assert not drifted.gate_ok, "a doubled metric must trip the gate"
    return 0


if __name__ == "__main__":
    sys.exit(main())
