"""The measuring process: one workload in one fresh interpreter.

``python -m bench.child --mode setup|timed|trace --workload NAME ...``
prints one JSON object on its last line of standard output.  A fresh child
per workload keeps peak RSS and import cost attributable to that workload;
``bench.measure`` is the only caller.

* ``setup`` — import what the workload needs, build its specs and temp
  directories, exit.  The parent times the whole process: that is what a
  user waits for before the first cell runs.
* ``timed`` — set up, warm up once untimed, then repeat the work until
  ``--seconds`` have passed, judging every repeat and bracketing it with
  the reference loop (``bench.calibrate``).  Tracing is off.
* ``trace`` — set up with spans on, run the work once plain and once
  under cProfile, then run the per-layer drivers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from bench import layers
from bench.calibrate import Stopwatch
from bench.trace import Tracer, count_calls, fold_profile, profile_call
from bench.workloads import build_workloads

#: A median needs a few samples even when one repeat outlasts the budget.
MIN_REPEATS = 3


def _peak_rss_kb(in_process: bool) -> int:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss


def run_timed(workload, seed: int, seconds: float, scale: float, tmp: str) -> dict:
    """Warm up, then repeat the work for ``seconds``; returns samples and verdicts.

    One repeat runs every part of the workload once (the in-process
    workloads have one part, ``campaign_store`` one per CLI phase).  Each
    part's run is one sample: its wall time and the reference loop's time
    next to it.
    """
    workload.prepare(seed, tmp, Tracer(workload.name), scale)
    workload.warm_up()
    parts = workload.parts
    samples: dict[str, list[tuple[float, float]]] = {part.name: [] for part in parts}
    outcomes: dict[str, list] = {part.name: [] for part in parts}
    held: dict[str, object] = {}
    stopwatch = Stopwatch()
    began = time.perf_counter()
    while True:
        repeat_began = time.perf_counter()
        for part in parts:
            if part.name in held:
                part.release(held.pop(part.name))
            fixture = held[part.name] = part.fixture()
            # The harness pauses the cyclic GC while a cell runs, so a finished
            # cell's object graph lingers until some later collection; the
            # stopwatch collects it after every sample, so peak RSS is one
            # repeat's footprint and not two or three, depending on the seed.
            output, wall, reference = stopwatch.timed(lambda: part.work(fixture))
            samples[part.name].append((wall, reference))
            outcomes[part.name].append(part.judge(output))
        now = time.perf_counter()
        # Stop where the budget is met to within half a repeat either way.
        if len(outcomes[parts[0].name]) >= MIN_REPEATS and (
            now - began >= seconds - (now - repeat_began) / 2.0
        ):
            break
    # Before `finish`: its gate children are checks, not the workload.
    peak_rss_kb = _peak_rss_kb(workload.in_process)

    attempted = failed = events = 0
    problems: list[str] = []
    for part in parts:
        first = outcomes[part.name][0]
        fixture = held.pop(part.name)
        events += part.events_of(first, fixture)
        for index, outcome in enumerate(outcomes[part.name]):
            label = f"{part.name} repeat {index}" if len(parts) > 1 else f"repeat {index}"
            attempted += outcome.attempted
            failed += outcome.failed
            problems.extend(f"{label}: {problem}" for problem in outcome.problems)
            if (outcome.identity, outcome.events) != (first.identity, first.events):
                failed += outcome.attempted - outcome.failed
                problems.append(f"{label}: simulated result differs from repeat 0")
        problems.extend(part.finish(fixture))
        part.release(fixture)
    return {
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "events": events,
        "problems": problems,
        "peak_rss_kb": peak_rss_kb,
    }


def run_traced(workload, seed: int, scale: float, tmp: str) -> dict:
    """One plain and one profiled run of the work, then the layer drivers."""
    tracer = Tracer(workload.name, enabled=True)
    with tracer.span("setup"):
        workload.prepare(seed, tmp, tracer, scale)
    workload.warm_up()
    parts = workload.parts
    problems: list[str] = []

    def judged(part, output) -> object:
        outcome = part.judge(output)
        problems.extend(outcome.problems)
        return outcome

    def in_process(fixtures: list) -> list:
        return [part.work_in_process(fixture) for part, fixture in zip(parts, fixtures)]

    if not workload.in_process:
        # The CLI children as users start them: their spans show process
        # start and imports next to the in-process spans below.
        for part in parts:
            fixture = part.fixture()
            judged(part, part.work(fixture))
            part.release(fixture)
        import repro.experiments.runner  # noqa: F401  (keep imports out of the profile)

    fixtures = [part.fixture() for part in parts]
    started = time.perf_counter()
    outputs = in_process(fixtures)
    plain_wall = time.perf_counter() - started
    plain = [judged(part, output) for part, output in zip(parts, outputs)]
    events = sum(
        part.events_of(outcome, fixture)
        for part, outcome, fixture in zip(parts, plain, fixtures)
    )
    for part, fixture in zip(parts, fixtures):
        part.release(fixture)

    tracer.enabled = False
    fixtures = [part.fixture() for part in parts]
    outputs, stats, profiled_wall = profile_call(lambda: in_process(fixtures))
    tracer.enabled = True
    for part, output, before, fixture in zip(parts, outputs, plain, fixtures):
        if judged(part, output).identity != before.identity:
            problems.append("profiled run's simulated result differs from the plain run's")
        problems.extend(part.finish(fixture))
        part.release(fixture)

    metrics = fold_profile(stats, events)
    metrics["trace.overhead_ratio"] = profiled_wall / plain_wall
    metrics["sim.events"] = events
    metrics["sim.events_per_s"] = events / plain_wall
    metrics["core.msgs"] = count_calls(
        stats, os.path.join("repro", "core", "netlink.py"), ("send_to_user", "send_to_kernel")
    )
    with tracer.span("layers"):
        metrics.update(layers.run_all(scale, seed, tmp))
    return {"metrics": metrics, "spans": tracer.spans, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)

    workload = build_workloads()[args.workload]
    if args.mode == "setup":
        workload.prepare(args.seed, args.tmp, Tracer(workload.name), args.scale)
        payload = {}
    elif args.mode == "timed":
        payload = run_timed(workload, args.seed, args.seconds, args.scale, args.tmp)
    else:
        payload = run_traced(workload, args.seed, args.scale, args.tmp)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
