"""Command-line entry point: ``smapp-experiments``.

Runs one (or all) of the paper-reproduction experiments and prints the
text rendering of the corresponding figure.  Scaling options keep the run
times reasonable on a laptop; ``docs/CLI.md`` lists their defaults.

Beyond the figure presets, ``sweep`` runs a named campaign grid, ``cell``
runs one arbitrary workload × scenario × controller × scheduler point of
the harness, ``list`` prints every registry the grid is built from, and
the regression-gate pair ``baseline`` / ``diff`` snapshots a campaign to
a committed JSON file and compares a fresh (or stored) run against it —
``diff`` exits non-zero on out-of-tolerance drift, which is what CI keys
on.

Two tables declare the CLI.  :data:`FIGURES` maps each paper figure to
its ``run_*`` function and to the flags that feed that function's
keywords.  The command table in :func:`build_parser` gives every
subcommand its help, handler and flags, and the parser is a loop over it;
``all`` is the figure rows in order, under the union of their flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from functools import partial
from importlib import import_module
from typing import Any, Callable, Optional, Sequence, Union

from repro.experiments.grids import GRID_NAMES, named_grid

#: A handler returns the report text, optionally paired with an exit code.
HandlerResult = Union[str, tuple[str, int]]

#: A flag: its option string and its ``add_argument`` keywords.
Flag = tuple[str, dict]

# Each handler imports what it runs: the parser and the store/report
# subcommands load no figure preset and no protocol stack.


def _resolve(reference: str) -> Any:
    """The object a ``"module:attribute"`` reference names, imported now."""
    module, _, attribute = reference.partition(":")
    return getattr(import_module(module), attribute)


def _json_object(text: str) -> dict:
    """``argparse`` type for ``--params``: a JSON object, else a usage error."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as error:
        raise argparse.ArgumentTypeError(f"not valid JSON ({error})")
    if not isinstance(value, dict):
        raise argparse.ArgumentTypeError("expected a JSON object")
    return value


def _positive(convert: Callable) -> Callable:
    """``argparse`` type for a count or a duration: finite and above zero, else a usage error."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = 0
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"expected a positive {convert.__name__}, got {text!r}")
        return value

    return parse


_positive_int = _positive(int)
_positive_float = _positive(float)


def _fraction(text: str) -> float:
    """``argparse`` type for ``--scale``: a float in (0, 1], else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"expected a fraction in (0, 1], got {text!r}")
    return value


def _registered(kind: str, registry: str, many: bool = False) -> Callable:
    """``argparse`` type for a flag naming an entry (``many``: comma-separated
    entries) of ``registry``, a ``"module:attribute"`` reference imported when an
    argument is parsed, not when the parser is built; unknown names are usage errors."""

    def parse(text: str) -> str:
        names = sorted(_resolve(registry))
        wanted = {part.strip() for part in text.split(",")} - {""} if many else {text}
        unknown = ", ".join(repr(name) for name in sorted(wanted.difference(names)))
        if unknown:
            raise argparse.ArgumentTypeError(f"unknown {kind} {unknown} (have {', '.join(names)})")
        return text

    return parse


_workload_name = _registered("workload", "repro.workloads.registry:WORKLOADS")
_scenario_name = _registered("scenario", "repro.workloads.registry:SCENARIOS")
_controller_name = _registered("controller", "repro.workloads.registry:CONTROLLERS")
_scheduler_name = _registered("scheduler", "repro.mptcp.scheduler:SCHEDULER_REGISTRY")
_event_categories = _registered("event category", "repro.obs.events:CATEGORIES", many=True)


def _readable_file(path: str) -> str:
    """``argparse`` type for an input file: readable now, else a usage error."""
    try:
        with open(path, "rb"):
            pass
    except OSError as error:
        raise argparse.ArgumentTypeError(f"cannot read {path!r} ({error.strerror})")
    return path


def _existing_directory(path: str) -> str:
    """``argparse`` type for a store that is read, never created."""
    if not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is not an existing directory")
    return path


#: The paper figures, in the order ``all`` runs them: subcommand → the
#: ``"module:attribute"`` of its ``run`` function and its flags.  Each flag's
#: ``dest`` is the ``run`` keyword it feeds; ``--seed`` feeds ``seed``.
FIGURES: dict[str, tuple[str, tuple[Flag, ...]]] = {
    "fig2a": ("repro.experiments.fig2a_backup:run_fig2a", ()),
    "fig2b": ("repro.experiments.fig2b_streaming:run_fig2b", (
        ("--blocks", dict(dest="block_count", metavar="BLOCKS", type=_positive_int, default=60,
                          help="fig2b: number of 64 KB blocks per run")),
        ("--sweep", dict(dest="include_smart_sweep", action="store_true",
                         help="fig2b: run the smart controller at every loss rate")),
    )),
    "fig2c": ("repro.experiments.fig2c_loadbalance:run_fig2c", (
        ("--runs", dict(dest="seeds", metavar="RUNS", type=_positive_int, default=10,
                        help="fig2c: number of seeds per variant")),
        ("--scale", dict(dest="scale", type=_fraction, default=0.1,
                         help="fig2c: fraction of the 100 MB transfer, in (0, 1]")),
    )),
    "fig3": ("repro.experiments.fig3_pm_delay:run_fig3", (
        ("--requests", dict(dest="request_count", metavar="REQUESTS", type=_positive_int,
                            default=200, help="fig3: number of HTTP requests")),
        ("--stressed", dict(dest="stressed", action="store_true",
                            help="fig3: add CPU-stress scheduling jitter")),
    )),
    "longlived": ("repro.experiments.longlived:run_longlived", (
        ("--duration", dict(dest="duration", type=_positive_float, default=900.0,
                            help="longlived: experiment duration in seconds")),
    )),
}


def _run_figure(name: str, args: argparse.Namespace) -> str:
    """Run one :data:`FIGURES` row with the keywords its flags feed."""
    reference, flags = FIGURES[name]
    keywords = {options["dest"]: getattr(args, options["dest"]) for _, options in flags}
    return _resolve(reference)(seed=args.seed, **keywords).format_report()


def _harness_spec(args: argparse.Namespace, params: dict):
    """The :class:`HarnessSpec` named by the ``cell``/``trace`` coordinates."""
    from repro.workloads import HarnessSpec

    return HarnessSpec(
        workload=args.workload,
        scenario=args.scenario,
        controller=args.controller,
        scheduler=args.scheduler,
        seed=args.seed,
        horizon=args.horizon,
        connections=args.connections,
        params=params,
    )


def _sweep_progress_printer(total: int) -> Callable:
    """A live ``cells done/total + ETA`` line for ``sweep --progress``.

    Writes to stderr (and only there), so piping stdout — reports, JSON,
    canonical output — stays byte-identical with the flag on.  The ETA
    extrapolates the observed per-cell pace over the remaining cells.
    """
    state = {"done": 0, "cached": 0, "started": time.monotonic()}

    def on_cell(spec, result, cached, telemetry) -> None:
        state["done"] += 1
        if cached:
            state["cached"] += 1
        elapsed = time.monotonic() - state["started"]
        remaining = total - state["done"]
        eta = (elapsed / state["done"]) * remaining
        print(
            f"\r[sweep] {state['done']}/{total} cells "
            f"({state['cached']} cached) elapsed {elapsed:.1f}s eta {eta:.1f}s",
            end="", file=sys.stderr, flush=True,
        )

    return on_cell


def _run_campaign(grid, args: argparse.Namespace, progress: Optional[Callable] = None):
    """``run_campaign`` under the flags every campaign subcommand shares."""
    from repro.sweep.engine import run_campaign

    return run_campaign(
        grid,
        workers=args.workers,
        backend=args.backend,
        store_dir=args.store,
        progress=progress,
    )


def _run_sweep(args: argparse.Namespace) -> str:
    from repro.sweep.report import format_campaign_report

    grid = named_grid(args.grid, campaign_seed=args.seed)
    progress = _sweep_progress_printer(grid.cell_count) if args.progress else None
    result = _run_campaign(grid, args, progress)
    if progress is not None:
        print(file=sys.stderr, flush=True)
    return format_campaign_report(result)


def _run_trace(args: argparse.Namespace) -> str:
    """Run one traced harness cell and export its structured event log."""
    from repro.obs import chrome_trace, events_jsonl
    from repro.sweep.grid import CellSpec
    from repro.workloads import Harness

    params = dict(args.params or {}, event_log=True)
    if args.categories:
        params["event_log_categories"] = args.categories
    if args.limit is not None:
        params["event_log_limit"] = args.limit
    run = Harness().run(_harness_spec(args, params))
    log = run.probe("events").log
    payload = events_jsonl(log) if args.format == "jsonl" else chrome_trace(log)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
        counts = ", ".join(
            f"{category}={count}"
            for category, count in log.counts_by_category().items()
        )
        key = CellSpec(
            args.workload, args.scenario, args.scheduler, args.controller, args.seed,
            connections=args.connections,
        ).key
        return (
            f"trace {key}: {len(log)} events ({counts}), {log.dropped} dropped\n"
            f"wrote {args.format} timeline to {args.out}"
        )
    return payload.rstrip("\n")


def _run_telemetry(args: argparse.Namespace) -> str:
    """Run (or store-replay) a grid and print its campaign telemetry."""
    from repro.obs import format_telemetry_report, summarize_telemetry

    grid = named_grid(args.grid, campaign_seed=args.seed)
    result = _run_campaign(grid, args)
    summary = summarize_telemetry(
        [cell.telemetry for cell in result.cells], top=args.top
    )
    report = format_telemetry_report(summary)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        report += f"\nwrote telemetry JSON to {args.json}"
    return report


def _run_baseline(args: argparse.Namespace) -> str:
    """Run a named grid and snapshot it to a committed baseline file."""
    from repro.sweep.baseline import write_baseline

    grid = named_grid(args.grid, campaign_seed=args.seed)
    result = _run_campaign(grid, args)
    baseline = write_baseline(result, args.out)
    return (
        f"wrote baseline '{baseline.name}' ({baseline.cell_count} cells, "
        f"campaign seed {baseline.campaign_seed}) to {args.out}"
    )


def _run_diff(args: argparse.Namespace) -> HandlerResult:
    """Compare a campaign against a committed baseline; exit 1 on drift.

    The reference (left) side is always the ``--baseline`` snapshot file.
    The candidate (right) side is, in order of preference: another
    snapshot file (``--candidate``), the campaign store alone
    (``--from-store``, no cells are run), or a fresh run of ``--grid``
    (which still reuses ``--store`` when given).  Grid name and campaign seed
    default to the snapshot's own, so the common call is just
    ``diff --baseline baselines/<grid>.json``.
    """
    from repro.sweep.baseline import (
        Baseline,
        IncompleteStoreError,
        baseline_from_store,
        load_baseline,
    )
    from repro.sweep.diff import diff_campaigns
    from repro.sweep.report import format_diff_report

    reference = load_baseline(args.baseline)
    if args.candidate is not None:
        conflicting = [
            flag for flag, value in (
                ("--grid", args.grid), ("--seed", args.seed),
                ("--store", args.store),
                ("--from-store", args.from_store or None),
            ) if value is not None
        ]
        if conflicting:
            raise SystemExit(
                f"diff --candidate compares two snapshot files; it conflicts "
                f"with {', '.join(conflicting)}"
            )
        candidate = load_baseline(args.candidate)
    else:
        grid_name = args.grid if args.grid is not None else reference.name
        seed = args.seed if args.seed is not None else reference.campaign_seed
        grid = named_grid(grid_name, campaign_seed=seed)
        if args.from_store:
            if args.store is None:
                raise SystemExit("diff --from-store requires --store")
            try:
                candidate = baseline_from_store(grid, args.store)
            except IncompleteStoreError as error:
                raise SystemExit(f"diff --from-store: {error}")
        else:
            result = _run_campaign(grid, args)
            candidate = Baseline.from_result(result, source=f"run of grid '{grid_name}'")

    diff = diff_campaigns(reference, candidate)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(diff.to_json() + "\n")
    return format_diff_report(diff), (0 if diff.gate_ok else 1)


def _run_fuzz(args: argparse.Namespace) -> HandlerResult:
    """Run a fuzz campaign and triage it — or shrink one failing plan.

    The campaign path runs the ``fuzz`` grid (faulted scenario variants
    next to their clean twins), reduces it to the canonical triage report
    and optionally writes the byte-stable JSON; with ``--fail-on-failed``
    the exit code reflects failed cells (off by default: fuzzing reports,
    the diff gate gates).  The ``--shrink`` path takes a named or on-disk
    fault plan, verifies it fails the configured cell, ddmin-reduces it to
    a minimal event subsequence and writes the counterexample artifact.
    """
    if args.shrink:
        return _run_shrink(args)
    from repro.analysis.faults import format_fault_report, triage_campaign, triage_json

    grid = dataclasses.replace(named_grid("fuzz", campaign_seed=args.seed), seeds=args.seeds)
    result = _run_campaign(grid, args)
    triage = triage_campaign(result, goodput_floor=args.goodput_floor)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(triage_json(triage))
    report = format_fault_report(triage)
    if args.store is not None:
        # The campaign's cells are already in the store; file the triage
        # report next to them so the corpus keeps verdict history too.
        from repro.store import CampaignStore

        triage_hash = CampaignStore(args.store).put_artifact("triage", triage)
        report += f"\ntriage artifact {triage_hash} filed in store {args.store}"
    failed = triage["verdicts"].get("failed", 0)
    code = 1 if (args.fail_on_failed and failed) else 0
    return report, code


def _run_shrink(args: argparse.Namespace) -> HandlerResult:
    from repro.faults.plan import FaultPlan
    from repro.faults.plans import NAMED_PLANS
    from repro.faults.shrink import (
        cell_failure_predicate,
        counterexample_artifact,
        shrink_plan,
        write_counterexample,
    )

    if args.plan is None:
        raise SystemExit("fuzz --shrink requires --plan NAME_OR_PATH")
    plan_name = None
    base_scenario = args.base_scenario
    if args.plan in NAMED_PLANS:
        named = NAMED_PLANS[args.plan]
        plan_name = named.name
        plan = named.build(args.horizon) if args.horizon is not None else named.build()
        if base_scenario is None:
            base_scenario = named.base_scenario
    elif os.path.exists(args.plan):
        try:
            plan = FaultPlan.load(args.plan)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as error:
            raise argparse.ArgumentTypeError(
                f"argument --plan: {args.plan!r} is not a fault plan file ({error}); "
                f"the named plans are {', '.join(sorted(NAMED_PLANS))}")
    else:
        raise SystemExit(
            f"--plan {args.plan!r} is neither a named plan "
            f"({sorted(NAMED_PLANS)}) nor a file"
        )
    if base_scenario is None:
        raise SystemExit("fuzz --shrink with a plan file requires --base-scenario")

    cell = dict(
        workload=args.workload,
        base_scenario=base_scenario,
        seed=args.seed,
        # The cell must run at least as long as the plan's own schedule, or
        # a plan that fails at its recorded horizon stops failing here.
        horizon=args.horizon if args.horizon is not None else plan.horizon,
        params=args.params or {},
        controller=args.controller,
        scheduler=args.scheduler,
        target_verdict=args.target_verdict,
    )
    predicate, _clean = cell_failure_predicate(**cell, goodput_floor=args.goodput_floor)
    try:
        result = shrink_plan(plan, predicate)
    except ValueError as error:
        return f"nothing to shrink: {error}", 1
    artifact = counterexample_artifact(result, **cell, plan_name=plan_name)
    if args.out is not None:
        write_counterexample(artifact, args.out)
    lines = [
        f"shrunk {len(result.original)} events to {len(result.minimal)} "
        f"in {result.evaluations} evaluations:",
    ]
    lines.extend(f"  {event.describe()}" for event in result.minimal.events)
    if args.out is not None:
        lines.append(f"counterexample written to {args.out}")
    if args.store is not None:
        # Corpus management: identical minimal plans deduplicate to one
        # content-addressed artifact, so the corpus only grows on novelty.
        from repro.store import CampaignStore

        artifact_hash = CampaignStore(args.store).put_artifact("counterexample", artifact)
        lines.append(f"counterexample artifact {artifact_hash} filed in store {args.store}")
    return "\n".join(lines)


def _run_worker(args: argparse.Namespace) -> str:
    """Execute one shard plan against a campaign store (a backend child).

    The receiving end of :class:`repro.sweep.backends.SubprocessShardBackend`
    — and the template for remote execution: anything that can invoke this
    subcommand against a shared store (SSH, a container job) is a sweep
    worker.  Already-stored cells are skipped, so re-spawning a worker
    after a crash recomputes only the gap.
    """
    from repro.sweep.backends import run_worker_shard

    summary = run_worker_shard(args.plan, args.store)
    return (
        f"worker: {summary['cells']} cell(s) in shard, "
        f"{summary['ran']} computed, {summary['skipped']} already stored"
    )


def _format_store_stats(store) -> list[str]:
    """Human rendering of :meth:`CampaignStore.stats`."""
    stats = store.stats()
    lines = [
        f"store {stats['root']}:",
        f"  objects: {stats['objects']} ({stats['object_bytes']} bytes)",
        f"  campaigns: {stats['campaigns']}, manifests: {stats['manifests']}",
    ]
    for campaign_id in stats["campaign_ids"]:
        manifest = store.latest_manifest(campaign_id)
        if manifest is None:
            continue
        status = "complete" if manifest.complete else (
            f"partial ({len(manifest.completed)}/{len(manifest.cells)} cells)"
        )
        lines.append(
            f"    {campaign_id}: '{manifest.name}' seed {manifest.campaign_seed}, "
            f"{len(manifest.cells)} cells, {status}, latest commit #{manifest.sequence}"
        )
    for kind, count in sorted(stats["artifacts"].items()):
        lines.append(f"  artifacts/{kind}: {count}")
    return lines


def _run_store(args: argparse.Namespace) -> HandlerResult:
    """Inspect a campaign store (stats/manifest/verify)."""
    from repro.store import CampaignStore

    store = CampaignStore(args.store)
    if args.action == "stats":
        return "\n".join(_format_store_stats(store))
    if args.action == "manifest":
        campaign_id = args.campaign
        if campaign_id is None:
            campaigns = store.campaign_ids()
            if len(campaigns) != 1:
                raise SystemExit(
                    f"store holds {len(campaigns)} campaigns; pass --campaign "
                    f"(have {campaigns})"
                )
            campaign_id = campaigns[0]
        manifest = store.latest_manifest(campaign_id)
        if manifest is None:
            raise SystemExit(f"no manifest for campaign {campaign_id!r}")
        return manifest.to_json().rstrip("\n")
    problems = store.verify_objects()
    if problems:
        return "\n".join(
            [f"store verify: {len(problems)} problem(s)"]
            + [f"  {problem}" for problem in problems]
        ), 1
    return f"store verify: all {len(store)} object(s) ok"


def _run_cell(args: argparse.Namespace) -> str:
    """Run one harness cell named entirely by registry entries."""
    from repro.sweep.grid import CellSpec
    from repro.workloads import Harness

    run = Harness().run(_harness_spec(args, args.params or {}))
    spec = CellSpec(
        args.workload, args.scenario, args.scheduler, args.controller, args.seed,
        connections=args.connections,
    )
    lines = [f"cell {spec.key}:"]
    for metric, value in sorted(run.metrics.items()):
        lines.append(f"  {metric} = {value}")
    return "\n".join(lines)


def _format_grid_axes(name: str) -> str:
    """One ``list`` line per named grid: its axes, spelled out.

    A grid is more than a name — it is a cell count and a set of axis
    values (including the ``connections`` scale axis); listing them saves a
    trip to the source when deciding what ``sweep --grid`` will run.
    """
    grid = named_grid(name)
    axes = [
        f"experiments={','.join(grid.experiments)}",
        f"scenarios={','.join(grid.scenarios)}",
        f"schedulers={','.join(grid.schedulers)}",
        f"controllers={','.join(grid.controllers)}",
        f"connections={','.join(str(count) for count in grid.connections)}",
        f"seeds={grid.seeds}",
    ]
    return f"{name} ({grid.cell_count} cells)\n    " + "\n    ".join(axes)


def _list_registries(args: argparse.Namespace) -> str:
    """Print every axis of the workload × scenario × controller grid."""
    from repro.faults import FAULT_MODELS, MIDDLEBOXES, NAMED_PLANS
    from repro.mptcp.scheduler import SCHEDULER_REGISTRY
    from repro.workloads import CONTROLLERS, PROBES, SCENARIOS, WORKLOADS

    grids = [_format_grid_axes(name) for name in GRID_NAMES]
    fault_models = [
        f"{name} — {FAULT_MODELS[name].description}" for name in sorted(FAULT_MODELS)
    ]
    fault_plans = [
        f"{name} — {NAMED_PLANS[name].description} (base: {NAMED_PLANS[name].base_scenario})"
        for name in sorted(NAMED_PLANS)
    ]
    from repro.sweep.backends import BACKENDS

    backends = [
        f"{name} — {BACKENDS[name].description}" for name in sorted(BACKENDS)
    ] + [
        "auto — process pool when more than one worker has cells to run, "
        "serial otherwise (the default)"
    ]
    sections = [
        ("workloads (sweep experiments)", sorted(WORKLOADS)),
        ("scenarios", sorted(SCENARIOS)),
        ("controllers", sorted(CONTROLLERS)),
        ("schedulers", sorted(SCHEDULER_REGISTRY)),
        ("probes", sorted(PROBES)),
        ("middleboxes", sorted(MIDDLEBOXES)),
        ("fault models", fault_models),
        ("fault plans (named)", fault_plans),
        ("execution backends (sweep --backend)", backends),
        ("grids", grids),
    ]
    lines = []
    for title, names in sections:
        lines.append(f"{title}:")
        for name in names:
            lines.append(f"  {name}")
    lines.append(
        "any workload x scenario x controller x scheduler combination runs via "
        "'cell' or as a sweep grid axis; 'fuzz' sweeps fault-plan seeds and "
        "'fuzz --shrink' minimises a failing plan"
    )
    if args.store is not None:
        from repro.store import CampaignStore

        lines.extend(_format_store_stats(CampaignStore(args.store)))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser from the command table (exposed for tests)."""
    from repro.sweep.backends import BACKENDS, usable_cpus

    def like(flag: Flag, option: Optional[str] = None, **changes) -> Flag:
        """``flag`` (renamed to ``option``) with some ``add_argument`` keywords changed."""
        return option or flag[0], {**flag[1], **changes}

    def grid(default: Optional[str] = "default", required: bool = False, note: str = "") -> Flag:
        # ``sweep`` and ``telemetry`` default to the ``default`` grid,
        # ``baseline`` requires one (a snapshot of the wrong grid is a silent
        # footgun) and ``diff`` defaults to the snapshot's own.
        return "--grid", dict(
            choices=GRID_NAMES, metavar="NAME", default=default, required=required,
            help=f"named campaign grid ({', '.join(GRID_NAMES)}){note}",
        )

    def json_out(what: str) -> Flag:
        return "--json", dict(default=None, help=f"also write the {what} here")

    seed: Flag = ("--seed", dict(type=int, default=1, help="base random seed"))
    store: Flag = ("--store", dict(
        default=None, metavar="DIR",
        help="content-addressed campaign store directory (cells and snapshot "
        "manifests; resumes partial campaigns)",
    ))
    campaign = (
        ("--workers", dict(
            type=_positive_int, default=usable_cpus(),
            help="worker processes for fresh cells (default: the %(default)s usable "
            "CPUs; never more than the cells left to run); results are "
            "byte-identical at any count",
        )),
        ("--backend", dict(
            default=None, choices=sorted(BACKENDS) + ["auto"],
            help="execution backend for fresh cells (default auto: process pool "
            "when more than one worker has cells to run, serial otherwise); "
            "results are byte-identical across backends",
        )),
        store,
    )
    cell = (
        ("--workload", dict(type=_workload_name, default="bulk_transfer",
                            help="workload registry name")),
        ("--scenario", dict(type=_scenario_name, default="dual_homed",
                            help="scenario registry name")),
        ("--controller", dict(type=_controller_name, default="passive",
                              help="controller registry name")),
        ("--scheduler", dict(type=_scheduler_name, default="lowest_rtt",
                             help="scheduler registry name")),
        ("--horizon", dict(type=_positive_float, default=30.0,
                           help="simulated run horizon in seconds")),
        ("--connections", dict(type=_positive_int, default=1,
                               help="concurrent client connections (the scale axis); "
                               "starts are staggered over the connection_stagger param")),
        ("--params", dict(type=_json_object, default=None,
                          help="workload parameters as a JSON object")),
    )
    workload, scenario, controller, scheduler, horizon, _, params = cell
    figure_steps = [(name, partial(_run_figure, name)) for name in FIGURES]
    figure_flags = {flag[0]: flag for _, flags in FIGURES.values() for flag in flags}

    # subcommand → (help, handler, flags); ``all``'s handler is the figure
    # rows, each timed and reported on its own.
    commands: dict[str, tuple[str, Any, tuple[Flag, ...]]] = {
        **{
            name: (f"reproduce {name}", [step], (seed, *FIGURES[name][1]))
            for name, step in zip(FIGURES, figure_steps)
        },
        "all": ("reproduce every paper figure", figure_steps, (seed, *figure_flags.values())),
        "sweep": ("run a named campaign grid", _run_sweep, (
            seed, grid(), *campaign,
            ("--progress", dict(action="store_true",
                                help="print a live cells-done/total + ETA line to stderr "
                                "(never part of the gated stdout output)")),
        )),
        "baseline": ("run a named grid and snapshot it to a baseline JSON file", _run_baseline, (
            seed, grid(required=True), *campaign,
            ("--out", dict(required=True, help="path of the baseline snapshot to write")),
        )),
        "diff": ("compare a campaign against a committed baseline (exit 1 on drift)", _run_diff, (
            like(seed, default=None,
                 help="campaign seed for the candidate run (defaults to the snapshot's)"),
            grid(default=None, note="; defaults to the --baseline snapshot's grid name"),
            *campaign,
            ("--baseline", dict(required=True, type=_readable_file,
                                help="reference baseline snapshot (the committed file to "
                                "gate against)")),
            ("--candidate", dict(default=None, type=_readable_file,
                                 help="compare another snapshot file instead of running the grid")),
            ("--from-store", dict(action="store_true",
                                  help="load the candidate purely from --store (error on "
                                  "missing cells)")),
            json_out("machine-readable diff JSON"),
        )),
        "fuzz": ("run a fault-injection fuzz campaign, or --shrink a failing plan", _run_fuzz, (
            seed,
            ("--seeds", dict(type=_positive_int, default=2,
                             help="fault-plan seeds per scenario (the fuzz axis)")),
            *campaign,
            json_out("byte-stable triage JSON"),
            ("--goodput-floor", dict(type=float, default=0.5,
                                     help="retained-goodput fraction below which a cell is "
                                     "degraded")),
            ("--fail-on-failed", dict(action="store_true",
                                      help="exit non-zero when any faulted cell fails outright")),
            ("--shrink", dict(action="store_true",
                              help="minimise a failing fault plan instead of running a campaign")),
            ("--target-verdict", dict(default="failed", choices=("failed", "fallback"),
                                      help="shrink: triage verdict the minimal plan must keep "
                                      "producing ('fallback' minimises down to the events "
                                      "that force a plain-TCP downgrade)")),
            ("--plan", dict(default=None,
                            help="shrink: named fault plan or path to a plan JSON file")),
            like(workload, help="shrink: workload of the failing cell"),
            like(scenario, "--base-scenario", default=None,
                 help="shrink: clean scenario the plan targets (defaults to the named plan's)"),
            like(controller, help="shrink: controller of the failing cell"),
            like(scheduler, help="shrink: scheduler of the failing cell"),
            like(horizon, default=None,
                 help="shrink: simulated run horizon in seconds "
                 "(defaults to the plan's own horizon)"),
            like(params, help="shrink: workload parameters as a JSON object — "
                 "must match the cell the plan failed in (the fuzz "
                 "grid uses e.g. {\"transfer_bytes\": 60000})"),
            ("--out", dict(default=None, help="shrink: write the counterexample artifact here")),
        )),
        "cell": ("run one harness cell by registry names", _run_cell, (seed, *cell)),
        "trace": ("run one traced harness cell and export its structured event log", _run_trace, (
            seed, *cell,
            ("--categories", dict(type=_event_categories, default=None,
                                  help="comma-separated event categories to record "
                                  "(default: all — connection, fallback, fault, pm, "
                                  "scheduler, subflow, timer)")),
            ("--limit", dict(type=_positive_int, default=None,
                             help="event-log retention cap (drops are counted beyond it)")),
            ("--format", dict(default="chrome", choices=("chrome", "jsonl"),
                              help="chrome: Chrome-trace-format timeline; "
                              "jsonl: one JSON object per event")),
            ("--out", dict(default=None, help="write the export here instead of stdout")),
        )),
        "telemetry": ("run a grid and print its campaign telemetry summary", _run_telemetry, (
            seed, grid(), *campaign,
            ("--top", dict(type=_positive_int, default=5,
                           help="number of slowest fresh cells to list")),
            json_out("telemetry summary JSON"),
        )),
        "list": ("print every registry the grid is built from", _list_registries, (
            like(store, help="also print object/manifest/artifact stats for this campaign store"),
        )),
        "worker": (
            "execute one shard plan against a campaign store "
            "(spawned by the subprocess backend; usable standalone for remote shards)",
            _run_worker, (
                like(store, required=True, help="campaign store the shard reads/writes"),
                ("--plan", dict(required=True, metavar="FILE", type=_readable_file,
                                help="shard plan JSON written by the coordinating backend")),
            ),
        ),
        "store": ("inspect a campaign store", _run_store, (
            ("action", dict(choices=("stats", "manifest", "verify"),
                            help="stats: object/manifest/artifact counts; manifest: print a "
                            "campaign's latest snapshot manifest; verify: recheck every object "
                            "against its content hash (exit 1 on damage)")),
            like(store, required=True, type=_existing_directory, help="campaign store directory"),
            ("--campaign", dict(default=None, metavar="ID",
                                help="manifest: campaign id (default: the store's only campaign)")),
        )),
    }

    parser = argparse.ArgumentParser(
        prog="smapp-experiments",
        description="Reproduce the evaluation of 'SMAPP: Towards Smart Multipath TCP-enabled APPlications'",
    )
    subparsers = parser.add_subparsers(
        dest="experiment",
        required=True,
        metavar="experiment",
        help="which figure/section to reproduce ('sweep' runs a campaign, 'cell' one "
        "workload/scenario/controller point, 'list' prints the registries, "
        "'baseline'/'diff' snapshot and regression-check a campaign, 'all' every figure)",
    )
    for name, (help_text, handler, flags) in commands.items():
        subparser = subparsers.add_parser(name, help=help_text)
        for option, options in flags:
            subparser.add_argument(option, **options)
        subparser.set_defaults(steps=handler if isinstance(handler, list) else [(name, handler)])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns non-zero when a subcommand reports failure
    (``diff`` on out-of-tolerance drift, ``fuzz --fail-on-failed`` on a failed
    cell, ``fuzz --shrink`` with nothing to shrink, ``store verify`` on damage).
    Usage errors — an unknown grid or registry name, a ``--params`` that is not a
    JSON object, a count, duration or fraction out of range, an input file that
    cannot be read or is not what the flag takes, a missing store directory where
    one is only read — exit 2 from ``argparse``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "diff" and args.from_store and args.store is not None:
        # ``diff --store`` names a store to create unless --from-store reads it.
        try:
            _existing_directory(args.store)
        except argparse.ArgumentTypeError as error:
            parser.error(f"argument --store: {error}")
    exit_code = 0
    for name, handler in args.steps:
        started = time.time()
        try:
            outcome = handler(args)
        except argparse.ArgumentTypeError as error:
            parser.error(str(error))
        report, code = outcome if isinstance(outcome, tuple) else (outcome, 0)
        exit_code = max(exit_code, code)
        elapsed = time.time() - started
        print(report)
        print(f"[{name} completed in {elapsed:.1f}s wall clock]")
        print()
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``runner list | head``).  Python flushes
        # stdout again at exit; point it at devnull so that stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
