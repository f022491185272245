"""Fuzzing the transport with deterministic adversaries.

Runs a small fuzz campaign (faulted scenario variants next to their clean
twins), prints the triage report, then takes the curated known-bad plan
and shrinks it to its minimal counterexample — the same flow the
``runner fuzz`` subcommand and the ``fuzz-smoke`` CI job automate.

Run with::

    PYTHONPATH=src python examples/fuzz_campaign.py
"""

from repro.analysis.faults import format_fault_report, triage_campaign
from repro.experiments.grids import named_grid
from repro.faults import cell_failure_predicate, named_plan, shrink_plan
from repro.sweep import run_campaign


def main() -> None:
    # 1. A fuzz campaign: every faulted scenario variant under two
    # fault-plan seeds, with the clean twins alongside for comparison.
    result = run_campaign(named_grid("fuzz"), workers=2)
    triage = triage_campaign(result)
    print(format_fault_report(triage))
    print()

    # 2. Shrink the deliberately fatal plan: five events in, one out.
    plan = named_plan("known_bad_dual_homed")
    failing, clean = cell_failure_predicate(
        workload="bulk_transfer", base_scenario="dual_homed", seed=1, horizon=15.0
    )
    shrunk = shrink_plan(plan, failing)
    print(
        f"shrunk {len(shrunk.original)} events to {len(shrunk.minimal)} "
        f"in {shrunk.evaluations} evaluations:"
    )
    for event in shrunk.minimal.events:
        print(f"  {event.describe()}")


if __name__ == "__main__":
    main()
