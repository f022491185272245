"""Command line of the repo benchmark.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` is the
form ``BENCHMARK.json`` declares: one workload, one JSON result on the last
line.  For people, from the repo root:

* ``python -m bench run``   — every workload, end-to-end metrics, tracing off;
* ``python -m bench trace`` — every workload's attribution run: span file
  plus the per-layer table;
* ``python -m bench aa``    — the full set twice, interleaved A B B A, to
  check that the benchmark agrees with itself within its own bounds.

``run`` and ``aa`` exit non-zero when a correctness check or the A/A
comparison fails.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import sys

from bench import ROOT, SRC, declaration
from bench.measure import commit_id, contract_line, measure, source_lines
from bench.trace import span_table, write_spans

DEFAULT_SEED = 33
OUT_DIR = os.path.join(ROOT, ".bench_out")
HISTORY = os.path.join(ROOT, "bench", "history.jsonl")


def _selected(args, spec: dict) -> list[str]:
    names = [workload["name"] for workload in spec["workloads"]]
    if not args.only:
        return names
    wanted = args.only.split(",")
    unknown = sorted(set(wanted) - set(names))
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; have {names}")
    return wanted


def _print_end_to_end(result: dict) -> None:
    detail = result["detail"]
    metrics = result["metrics"]
    print(
        f"{detail['workload']:<22}"
        f" wall_s {metrics['wall_s']['value']:.4f} s"
        f" | setup_s {metrics['setup_s']['value']:.4f} s (n={detail['setup_s']['n']})"
        f" | peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB"
        f" | ops {result['attempted']} failed {result['failed']}"
        f" | events {detail['events']}"
        f" | {'ok' if result['correct'] else 'FAILED'}"
    )
    for name, part in detail["parts"].items():
        print(
            f"    {name:<8} {part['value']:.4f} s normalised (median of n={part['n']},"
            f" iqr {part['iqr_share']:.1%}); host seconds median {part['raw_median']:.4f},"
            f" min {part['raw_min']:.4f}, max {part['raw_max']:.4f};"
            f" machine slowdown {part['slowdown']:.2f}"
        )
    for problem in detail["problems"]:
        print(f"    ! {problem}")


def _history_line(results: dict, seed: int) -> dict:
    from bench.layers import fixed_and_per_event

    fixed_ms, us_per_event = fixed_and_per_event(seed, 1.0)
    return {
        "commit": commit_id(),
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "tmpfs": any(result["detail"]["tmpfs"] for result in results.values()),
        "seed": seed,
        "end_to_end": {
            name: {metric: entry["value"] for metric, entry in result["metrics"].items()}
            for name, result in results.items()
        },
        "sweep.cell_fixed_ms": fixed_ms,
        "sweep.cell_us_per_event": us_per_event,
        "src_lines": source_lines(),
    }


def command_run(args, spec: dict) -> int:
    results = {}
    for name in _selected(args, spec):
        results[name] = measure(name, args.seed, args.seconds, trace=False, scale=args.scale)
        _print_end_to_end(results[name])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
            handle.write("\n")
    if args.append_history:
        with open(HISTORY, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(_history_line(results, args.seed), sort_keys=True) + "\n")
    return 0 if all(result["correct"] for result in results.values()) else 1


def command_trace(args, spec: dict) -> int:
    out_dir = args.out or OUT_DIR
    results = {}
    spans: list[dict] = []
    for name in _selected(args, spec):
        results[name] = measure(name, args.seed, args.seconds, trace=True, scale=args.scale)
        spans.extend(results[name]["detail"].pop("spans"))
    names = list(results)
    print(f"{'metric':<34}" + "".join(f"{name[:14]:>15}" for name in names))
    for metric in spec["per_layer"]:
        row = "".join(
            f"{results[name]['metrics'][metric['name']]['value']:>15.4g}" for name in names
        )
        print(f"{metric['name'] + ' [' + metric['unit'] + ']':<34}{row}")
    print()
    print(f"{'span':<46}{'count':>7}{'total_s':>10}{'self_s':>10}")
    for row in span_table(spans):
        label = f"{row['workload']}: {row['name']}"
        print(f"{label:<46}{row['count']:>7}{row['total_s']:>10.3f}{row['self_s']:>10.3f}")
    write_spans(os.path.join(out_dir, "spans.json"), spans)
    with open(os.path.join(out_dir, "per_layer.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {os.path.join(out_dir, 'spans.json')} and per_layer.json")
    for name, result in results.items():
        for problem in result["detail"]["problems"]:
            print(f"    ! {name}: {problem}")
    return 0 if all(result["correct"] for result in results.values()) else 1


def command_aa(args, spec: dict) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    verdict = 0
    for name in _selected(args, spec):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for label in "ABBA":
            result = measure(name, args.seed, args.seconds, trace=False, scale=args.scale)
            if not result["correct"]:
                print(f"{name}: set {label} failed its checks: {result['detail']['problems']}")
                verdict = 1
            sets[label].append(result["metrics"])
        for metric, bound in bounds.items():
            first, second = (
                statistics.median(run[metric]["value"] for run in sets[label])
                for label in "AB"
            )
            gap = abs(second - first) / first
            ok = gap <= bound
            verdict = verdict if ok else 1
            print(
                f"{name:<22} {metric:<12} A {first:.4f} B {second:.4f}"
                f" gap {gap:.2%} bound {bound:.0%} {'ok' if ok else 'DISAGREE'}"
            )
    return verdict


def command_driver(args, spec: dict) -> int:
    result = measure(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    if args.trace:
        write_spans(
            os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"),
            result["detail"]["spans"],
        )
    else:
        _print_end_to_end(result)
    print(contract_line(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=("run", "trace", "aa"))
    parser.add_argument("--workload", help="measure this one workload and print the contract line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="campaign seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds each workload measures (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 emits the per-layer metrics instead")
    parser.add_argument("--only", help="run/trace/aa: comma-separated workload names")
    parser.add_argument("--out", help="run: result JSON file; trace: output directory")
    parser.add_argument("--append-history", action="store_true",
                        help="run: append one line to bench/history.jsonl")
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"bench: no program to measure: {SRC}/repro is missing")
    spec = declaration()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.command is None:
        if not args.workload:
            parser.error("give a command (run, trace, aa) or --workload")
        return command_driver(args, spec)
    return {"run": command_run, "trace": command_trace, "aa": command_aa}[args.command](args, spec)


if __name__ == "__main__":
    sys.exit(main())
