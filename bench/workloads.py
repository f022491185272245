"""The benchmark workloads: fixed simulated work, built from public constructors.

Every workload is a closed loop with one generator: the next repeat starts
when the previous one returned.  ``--seed`` is the campaign seed; the
program under test sees only the specs and grids generated from it.  The
reasons each workload exists are recorded once, in ``BENCHMARK.json`` and
the workload table of ``bench/README.md``.

A workload's life inside its measuring process is ``prepare`` (timed from
the parent as ``setup_s``), one untimed ``warm_up``, then repeats of, for
each of its ``parts``, ``fixture`` (untimed) → ``work`` (timed) → ``judge``
(untimed), and one ``finish`` per part for the checks that need the last
repeat's leftovers.  The in-process workloads are their own single part;
``campaign_store`` has one part per CLI phase.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from bench import ROOT, python_child
from bench.trace import Tracer

#: Smallest value each size knob may be scaled down to (the internal
#: ``scale`` test hook): two connections keep the ``aggregate`` probe on.
_KNOB_FLOOR = {"transfer_bytes": 3000, "connections": 2, "request_count": 1}


@dataclass
class Outcome:
    """The judged output of one repeat."""

    attempted: int
    failed: int
    events: int
    identity: str
    """Digest of the simulated result; must not change between repeats."""
    problems: list[str] = field(default_factory=list)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# single-cell workloads
# ----------------------------------------------------------------------
def judge_cell(spec: dict, result: dict) -> Outcome:
    """Count the client operations of one cell and the ones that fell short.

    An operation is a client connection (bulk) or request (http); it failed
    when it did not complete inside the horizon, and the whole cell counts
    as failed when the delivered byte total is not the requested one.
    """
    params = spec["params"]
    if spec["experiment"] == "http":
        attempted = int(params["request_count"])
        completed = int(result.get("requests_completed", 0))
        wanted_bytes = attempted * int(params["object_size"])
    else:
        attempted = int(spec.get("connections", 1))
        completed = int(result.get("app_samples", 0))
        wanted_bytes = attempted * int(params["transfer_bytes"])
    problems = []
    failed = attempted - completed
    if failed:
        problems.append(f"{failed} of {attempted} operations did not complete")
    if result.get("bytes_delivered") != wanted_bytes:
        failed = max(failed, 1)
        problems.append(
            f"bytes_delivered {result.get('bytes_delivered')!r} != requested {wanted_bytes}"
        )
    return Outcome(
        attempted=attempted,
        failed=failed,
        events=int(result.get("events_processed", 0)),
        identity=_digest(json.dumps(result, sort_keys=True)),
        problems=problems,
    )


class InProcessWorkload:
    """What the workloads that run inside the measuring process share.

    They need no per-repeat fixture, and the work the profiler runs is the
    work itself.
    """

    in_process = True

    @property
    def parts(self) -> list:
        """The separately timed pieces of one repeat: here, the work itself."""
        return [self]

    def fixture(self) -> None:
        return None

    def events_of(self, outcome: Outcome, _fixture: None) -> int:
        return outcome.events

    def work_in_process(self, fixture: None):
        return self.work(fixture)

    def release(self, _fixture: None) -> None:
        pass

    def finish(self, _fixture: None) -> list[str]:
        return []


def bulk_cell(transfer_bytes: int, **params) -> dict:
    """The two-path full-mesh bulk cell, at any size, trace probe off."""
    return {
        "experiment": "bulk_transfer", "scenario": "dual_homed",
        "scheduler": "lowest_rtt", "controller": "fullmesh", "seed_index": 0,
        "params": {"transfer_bytes": transfer_bytes, "horizon": 60.0,
                   "trace_probe": False, **params},
    }


def campaign_grid_name(scale: float) -> str:
    """The named grid the CLI phases sweep.

    The internal scale hook swaps in the four-cell grid; a documented run
    always sweeps the 64-cell ``workloads`` grid.
    """
    return "workloads" if scale >= 1.0 else "quick"


class CellWorkload(InProcessWorkload):
    """One large ``run_cell`` — the per-event path with nothing else in it."""

    def __init__(self, name: str, spec: dict, knob: str) -> None:
        self.name = name
        self._full_spec = spec
        self._knob = knob

    def _scaled(self, factor: float) -> dict:
        spec = copy.deepcopy(self._full_spec)
        holder = spec if self._knob in spec else spec["params"]
        holder[self._knob] = max(int(holder[self._knob] * factor), _KNOB_FLOOR[self._knob])
        return spec

    def validate(self) -> None:
        """Check the spec's axis values against the program's registries."""
        from repro.sweep import CampaignGrid

        spec = self._full_spec
        CampaignGrid(
            experiments=[spec["experiment"]],
            scenarios=[spec["scenario"]],
            schedulers=[spec["scheduler"]],
            controllers=[spec["controller"]],
            connections=[spec.get("connections", 1)],
        ).validate()

    def prepare(self, seed: int, tmp: str, tracer: Tracer, scale: float = 1.0) -> None:
        with tracer.span("import:repro.sweep"):
            from repro.sweep import run_cell
        self._run_cell = run_cell
        self._tracer = tracer
        self._seed = seed
        self._scale = scale
        self.spec = self._scaled(scale)

    def warm_up(self) -> None:
        # A tenth of the cell runs the same code paths; a full-size warm-up
        # would spend a fifth of the run's budget untimed.
        self._run_cell(self._scaled(self._scale * 0.1), self._seed)

    def work(self, _fixture: None) -> dict:
        with self._tracer.span("sweep.run_cell"):
            return self._run_cell(self.spec, self._seed)

    def judge(self, result: dict) -> Outcome:
        return judge_cell(self.spec, result)


# ----------------------------------------------------------------------
# the tiny-cell campaign
# ----------------------------------------------------------------------
#: Toy sizes for every workload's knobs: ~70 events per cell, so what is
#: timed is what a cell costs before and after its events.  The horizon is
#: long enough for every clean-scenario cell to finish (a lost SYN retries
#: after 1 s, 2 s, 4 s) and idle simulated time costs no host time.
TINY_PARAMS = {
    "transfer_bytes": 2000, "block_count": 1, "block_bytes": 2000,
    "request_count": 1, "object_size": 2000, "message_bytes": 200,
    "message_interval": 8.0, "horizon": 20.0,
}
TINY_SEEDS = 16


def tiny_cell_delivered(experiment: str, result: dict) -> bool:
    """Whether a tiny cell moved the one unit of work it was asked to."""
    if experiment == "bulk_transfer":
        return result.get("bytes_delivered") == TINY_PARAMS["transfer_bytes"]
    if experiment == "http":
        return (
            result.get("requests_completed") == TINY_PARAMS["request_count"]
            and result.get("bytes_delivered") == TINY_PARAMS["object_size"]
        )
    if experiment == "streaming":
        return result.get("blocks_delivered") == TINY_PARAMS["block_count"]
    if experiment == "longlived":
        return int(result.get("messages_delivered") or 0) >= 1
    return True


class TinyCells(InProcessWorkload):
    """Every workload × every scenario × N seeds of ~70-event cells."""

    name = "tiny_cells"

    def grid(self, seed: int, scale: float = 1.0):
        from repro.sweep import EXPERIMENTS, SCENARIOS, CampaignGrid

        return CampaignGrid(
            name="tiny_cells",
            campaign_seed=seed,
            experiments=sorted(EXPERIMENTS),
            scenarios=sorted(SCENARIOS),
            schedulers=["lowest_rtt"],
            controllers=["fullmesh"],
            seeds=max(1, int(TINY_SEEDS * scale)),
            params=dict(TINY_PARAMS),
        )

    def validate(self) -> None:
        self.grid(1).validate()

    def prepare(self, seed: int, tmp: str, tracer: Tracer, scale: float = 1.0) -> None:
        with tracer.span("import:repro.sweep"):
            from repro.faults.catalog import FAULTED_SCENARIOS
            from repro.sweep import run_campaign
        self._run_campaign = run_campaign
        self._faulted = frozenset(FAULTED_SCENARIOS)
        self._tracer = tracer
        self._seed = seed
        with tracer.span("sweep.CampaignGrid"):
            self._grid = self.grid(seed, scale)

    def warm_up(self) -> None:
        self._run_campaign(self.grid(self._seed, 1.0 / TINY_SEEDS), workers=1)

    def work(self, _fixture: None) -> tuple:
        tracer = self._tracer
        progress = None
        if tracer.enabled:

            def progress(spec, result, cached, telemetry) -> None:
                ended = time.perf_counter()
                tracer.record("sweep.run_cell", ended - telemetry.wall_time_s, ended)

        with tracer.span("sweep.run_campaign"):
            campaign = self._run_campaign(self._grid, workers=1, progress=progress)
        with tracer.span("sweep.to_canonical_json"):
            canonical = campaign.to_canonical_json()
        return campaign, canonical

    def judge(self, output: tuple) -> Outcome:
        campaign, canonical = output
        # Cells under a fault plan may lose their connection for good; that
        # is the simulated outcome, not a failure of the program, so only
        # clean scenarios are held to delivery.  Every cell is held to
        # byte-identity across repeats through the canonical JSON digest.
        short = [
            cell.spec.key
            for cell in campaign.cells
            if cell.spec.scenario not in self._faulted
            and not tiny_cell_delivered(cell.spec.experiment, cell.result)
        ]
        problems = [f"{len(short)} clean cells fell short, first {short[0]}"] if short else []
        return Outcome(
            attempted=campaign.cell_count,
            failed=len(short),
            events=sum(int(cell.result.get("events_processed", 0)) for cell in campaign.cells),
            identity=_digest(canonical),
            problems=problems,
        )


# ----------------------------------------------------------------------
# the CLI / store campaign phases
# ----------------------------------------------------------------------
_HEADER = re.compile(r"(\d+) cells, (\d+) cached / (\d+) computed")
_FOOTER = re.compile(r"^\[\w+ completed in .* wall clock\]$")


def report_body(stdout: str) -> tuple[str, str]:
    """Split a ``runner sweep`` report into its header line and its body.

    The header carries the run accounting (cached/computed, workers, wall
    time) and the footer the wall clock; everything between is a pure
    function of the grid and must be byte-identical across phases.
    """
    lines = stdout.splitlines()
    header = lines[0] if lines else ""
    body = [line for line in lines[1:] if not _FOOTER.match(line)]
    while body and not body[-1]:
        body.pop()
    return header, "\n".join(body)


class _StopPrefill(Exception):
    """Raised from a progress callback to leave a store exactly half full."""


class StorePhase:
    """One phase of ``runner sweep --grid workloads --store S`` as a fresh process."""

    #: phase → (share of the grid already in the store, extra CLI flags)
    PHASES = {
        "cold": (0.0, ()),
        "warm": (1.0, ()),
        "resume": (0.5, ()),
        "subproc2": (0.0, ("--workers", "2", "--backend", "subprocess")),
    }

    def __init__(self, phase: str) -> None:
        self.name = phase
        self.phase = phase
        self._prefilled, self._flags = self.PHASES[phase]

    def prepare(self, seed: int, tmp: str, tracer: Tracer, scale: float = 1.0) -> None:
        self._tracer = tracer
        self._seed = seed
        self._tmp = tmp
        self._grid_name = campaign_grid_name(scale)
        with tracer.span("import:repro.experiments.grids"):
            from repro.experiments.grids import named_grid
        with tracer.span("experiments.named_grid"):
            self._grid = named_grid(self._grid_name, campaign_seed=seed)
        self.cells = self._grid.cell_count
        self._cached = int(self.cells * self._prefilled)
        self._reference: Optional[str] = None
        self._template: Optional[str] = None
        self._stores = 0

    def prefill(self) -> None:
        """Leave ``_cached`` cells in a template store, as an interrupted run would.

        Part of the warm-up, not of ``setup_s``: a user's store is warm
        because an earlier campaign ran, not because this one prepared it.
        """
        if not self._cached:
            return
        with self._tracer.span("import:repro.sweep"):
            from repro.sweep import run_campaign
        self._template = tempfile.mkdtemp(prefix="template-", dir=self._tmp)
        remaining = self._cached

        def progress(spec, result, cached, telemetry) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0 and self._cached < self.cells:
                raise _StopPrefill

        with self._tracer.span("store.prefill"), contextlib.suppress(_StopPrefill):
            run_campaign(self._grid, store_dir=self._template, progress=progress)

    def _argv(self, store: str) -> list[str]:
        return [
            "sweep", "--grid", self._grid_name, "--seed", str(self._seed),
            "--store", store, *self._flags,
        ]

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        with self._tracer.span(f"cli:{argv[0]}"):
            done = python_child(["-m", "repro.experiments.runner", *argv])
        return done.returncode, done.stdout if done.returncode == 0 else done.stderr

    def warm_up(self) -> None:
        self.prefill()
        store = self.fixture()
        self.judge(self.work(store))
        self.release(store)

    def fixture(self) -> str:
        if self.phase == "warm":
            return self._template
        self._stores += 1
        store = os.path.join(self._tmp, f"{self.phase}-{self._stores}")
        if self._template is not None:
            shutil.copytree(self._template, store)
        return store

    def work(self, store: str) -> tuple[int, str]:
        return self._cli(self._argv(store))

    def work_in_process(self, store: str) -> tuple[int, str]:
        """The same command inside this interpreter, for the profiler."""
        from repro.experiments import runner

        captured = io.StringIO()
        with self._tracer.span("experiments.runner.main"), contextlib.redirect_stdout(captured):
            code = runner.main(self._argv(store))
        return code, captured.getvalue()

    def judge(self, output: tuple[int, str]) -> Outcome:
        code, text = output
        problems = []
        if code != 0:
            problems.append(f"runner sweep exited {code}: {text.strip().splitlines()[-1:]}")
        else:
            header, body = report_body(text)
            match = _HEADER.search(header)
            accounting = tuple(int(group) for group in match.groups()) if match else None
            expected = (self.cells, self._cached, self.cells - self._cached)
            if accounting != expected:
                problems.append(f"header accounting {accounting} != expected {expected}")
            if self._reference is None:
                self._reference = body
            elif body != self._reference:
                problems.append("report body differs from the first run's")
        return Outcome(
            attempted=self.cells,
            failed=self.cells if problems else 0,
            events=0,
            identity=_digest(self._reference or ""),
            problems=problems,
        )

    def release(self, store: str) -> None:
        if store != self._template:
            shutil.rmtree(store, ignore_errors=True)

    def events_of(self, _outcome: Outcome, store: str) -> int:
        """Simulated events this phase computed, read back from its store.

        The store holds every cell's result once the phase has run; the
        phase computed the share of them that was not there before.
        """
        from repro.store import CampaignStore
        from repro.sweep import plan_campaign

        handle = CampaignStore(store)
        total = 0
        for config_hash in plan_campaign(self._grid).hashes:
            with self._tracer.span("store.get_cell"):
                entry = handle.get_cell(config_hash)
            total += int(((entry or {}).get("result") or {}).get("events_processed", 0))
        return total * (self.cells - self._cached) // self.cells

    def finish(self, store: str) -> list[str]:
        """Cross-phase identity and, for the cold phase, the committed-baseline gate.

        Each phase's CLI body is compared with the report the public API
        renders from the same (now complete) store; since that report is a
        pure function of grid and seed, all phases agree with each other.
        """
        from repro.sweep import format_campaign_report, run_campaign

        problems = []
        with self._tracer.span("sweep.run_campaign"):
            campaign = run_campaign(self._grid, store_dir=store)
        _header, body = report_body(format_campaign_report(campaign))
        if campaign.cache_misses:
            problems.append(f"{campaign.cache_misses} cells missing from the store after the run")
        if body != self._reference:
            problems.append("CLI report body differs from the in-process report of the same store")
        if self.phase == "cold":
            problems.extend(self._baseline_gate())
        return problems

    def _baseline_gate(self) -> list[str]:
        """``runner diff`` of a stored campaign against the committed baseline.

        The baseline lives outside ``bench/`` and has its own campaign seed,
        so a behaviour-changing PR regenerates it the normal way and this
        check follows; no simulated digest is pinned inside ``bench/``.
        """
        from repro.sweep import load_baseline

        baseline = os.path.join(ROOT, "baselines", f"{self._grid_name}.json")
        seed = load_baseline(baseline).campaign_seed
        store = tempfile.mkdtemp(prefix="gate-", dir=self._tmp)
        try:
            code, text = self._cli(
                ["sweep", "--grid", self._grid_name, "--seed", str(seed), "--store", store]
            )
            if code == 0:
                code, text = self._cli(
                    ["diff", "--baseline", baseline, "--store", store, "--from-store"]
                )
        finally:
            shutil.rmtree(store, ignore_errors=True)
        if code != 0:
            return [f"baseline gate failed ({code}): {text.strip().splitlines()[-1:]}"]
        return []


class CampaignStore:
    """A campaign session through the CLI: run it, run it again, resume it.

    One repeat is the three ``runner sweep --store`` phases a researcher
    goes through with a store, each a fresh process timed on its own:
    ``cold`` (empty store), ``warm`` (every cell a hit) and ``resume``
    (a store an interrupted run left exactly half full).  ``wall_s`` is
    the sum of the three phases' medians.
    """

    name = "campaign_store"
    in_process = False

    def __init__(self) -> None:
        self.parts = [StorePhase("cold"), StorePhase("warm"), StorePhase("resume")]

    def validate(self) -> None:
        from repro.experiments.grids import named_grid

        named_grid("workloads").validate()

    def prepare(self, seed: int, tmp: str, tracer: Tracer, scale: float = 1.0) -> None:
        for part in self.parts:
            part.prepare(seed, tmp, tracer, scale)

    def warm_up(self) -> None:
        for part in self.parts:
            part.warm_up()


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
def build_workloads() -> dict[str, Any]:
    """Fresh workload objects by name, in ``BENCHMARK.json`` order."""
    workloads = [
        CellWorkload(
            "bulk_steady",
            bulk_cell(8_000_000),
            knob="transfer_bytes",
        ),
        CellWorkload(
            "many_conns",
            {
                "experiment": "bulk_transfer", "scenario": "dual_homed",
                "scheduler": "lowest_rtt", "controller": "passive", "seed_index": 0,
                "connections": 500,
                "params": {"transfer_bytes": 40_000, "horizon": 60.0, "trace_probe": False,
                           "connection_stagger": 2.0},
            },
            knob="connections",
        ),
        CellWorkload(
            "lossy_http_userspace",
            {
                "experiment": "http", "scenario": "asymmetric_loss",
                "scheduler": "lowest_rtt", "controller": "userspace_fullmesh", "seed_index": 0,
                "params": {"request_count": 600, "object_size": 10_000, "horizon": 600.0,
                           "trace_probe": False},
            },
            knob="request_count",
        ),
        TinyCells(),
        CampaignStore(),
    ]
    return {workload.name: workload for workload in workloads}
