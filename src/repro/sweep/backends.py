"""Pluggable campaign execution backends.

The engine's execute phase (:func:`repro.sweep.engine.execute_plan`) hands
its pending cells to an :class:`ExecutionBackend`; the backend decides
*where* they run, nothing else.  Every backend honours the same contract:

* call ``on_cell(index, payload)`` in the parent process for every pending
  cell, where ``payload`` is the ``{"result", "telemetry"}`` wrapper of
  :func:`repro.sweep.cells.run_cell_with_telemetry` (completion order is
  free — the merge phase reassembles grid order);
* raise :class:`PoolUnavailableError` when the execution *vehicle* cannot
  be provided (no process pool, cannot spawn children) so the engine can
  fall back to a serial run;
* let cell-level exceptions propagate — a failing cell aborts the
  campaign, it never silently degrades it.

Because each cell is a pure function of the campaign seed and its own
coordinates, every backend produces byte-identical aggregated output at
any worker count.  :class:`SubprocessShardBackend` is the template for
future SSH/container backends: it shards the cell list to ``runner
worker`` child processes that communicate results exclusively through the
content-addressed :class:`~repro.store.CampaignStore`.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from typing import Callable, Optional, Sequence, Union

from repro.store import CampaignStore
from repro.sweep.grid import CellSpec

#: Bump when the worker shard-plan schema changes incompatibly.
WORKER_FORMAT_VERSION = 1

#: ``on_cell(index, payload)`` — fires in the parent per completed cell.
OnCell = Callable[[int, dict], None]

#: The execute phase's work list: ``(grid index, spec)`` pairs.
PendingCells = Sequence[tuple[int, CellSpec]]


class PoolUnavailableError(RuntimeError):
    """The platform could not provide (or keep alive) the execution vehicle.

    Distinct from exceptions raised by a cell's own code, which must abort
    the campaign instead of silently triggering a serial re-run.
    """


class ExecutionBackend:
    """Base class of the backend registry; subclasses run pending cells."""

    #: Registry name (``sweep --backend`` value).
    name = "abstract"
    #: One-line ``runner list`` description.
    description = "abstract backend"

    def run_cells(
        self,
        pending: PendingCells,
        campaign_seed: int,
        workers: int,
        on_cell: OnCell,
        store: Optional[CampaignStore] = None,
    ) -> None:
        """Run every pending cell, reporting each through ``on_cell``."""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Run cells one after another in the calling process.

    The reference implementation every other backend must match byte for
    byte — and the fallback the engine drops to when a parallel backend
    raises :class:`PoolUnavailableError`.
    """

    name = "serial"
    description = "in-process, one cell at a time (the byte-identity reference)"

    def run_cells(
        self,
        pending: PendingCells,
        campaign_seed: int,
        workers: int,
        on_cell: OnCell,
        store: Optional[CampaignStore] = None,
    ) -> None:
        """Run cells in plan order in this process."""
        from repro.sweep.cells import run_cell_with_telemetry

        for index, spec in pending:
            on_cell(index, run_cell_with_telemetry(spec.as_dict(), campaign_seed))


class ProcessPoolBackend(ExecutionBackend):
    """Run cells on a ``ProcessPoolExecutor`` worker pool.

    Raises :class:`PoolUnavailableError` when the pool itself cannot be
    created or dies (restricted sandboxes, missing POSIX semaphores,
    killed workers); lets cell-level exceptions propagate untouched.
    """

    name = "pool"
    description = "local ProcessPoolExecutor worker pool"

    def run_cells(
        self,
        pending: PendingCells,
        campaign_seed: int,
        workers: int,
        on_cell: OnCell,
        store: Optional[CampaignStore] = None,
    ) -> None:
        """Fan cells out to pool workers; ``on_cell`` fires as they finish."""
        import concurrent.futures
        import multiprocessing

        # Imported here, in the parent, before the pool forks: the workers
        # inherit the loaded protocol stack instead of importing it each.
        from repro.sweep.cells import run_cell_with_telemetry

        try:
            abort = multiprocessing.Event()
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_set_pool_abort, initargs=(abort,)
            )
        except (OSError, ImportError, NotImplementedError) as error:
            raise PoolUnavailableError(f"cannot start a worker pool: {error}") from error
        with pool:
            futures = {
                pool.submit(
                    _pool_cell, run_cell_with_telemetry, spec.as_dict(), campaign_seed
                ): index
                for index, spec in pending
            }
            try:
                for future in concurrent.futures.as_completed(futures):
                    try:
                        result = future.result()
                    except concurrent.futures.BrokenExecutor as error:
                        raise PoolUnavailableError(f"worker pool died: {error}") from error
                    on_cell(futures[future], result)
            except BaseException:
                # The campaign is aborted: nobody will read the queued
                # cells' results.  cancel_futures drops the cells still
                # waiting in the parent; the flag drops the ones the pool
                # already handed to its call queue.
                abort.set()
                pool.shutdown(wait=True, cancel_futures=True)
                raise


#: In a pool worker: the parent's abort flag (set by :func:`_set_pool_abort`).
_pool_abort = None


def _set_pool_abort(abort) -> None:
    """Pool-worker initializer: remember the parent's abort flag."""
    global _pool_abort
    _pool_abort = abort


def _pool_cell(
    run: Callable[[dict, int], dict], spec: dict, campaign_seed: int
) -> Optional[dict]:
    """``run(spec, campaign_seed)`` in a pool worker, unless the campaign was aborted."""
    if _pool_abort.is_set():
        return None
    return run(spec, campaign_seed)


class SubprocessShardBackend(ExecutionBackend):
    """Shard the cell list to ``runner worker`` child processes.

    Cells are split round-robin into one shard per worker; each child gets
    a shard-plan file and writes every result into the shared
    :class:`~repro.store.CampaignStore` (children that find a cell already
    stored skip it, so a re-run after a crash recomputes only the gap).
    The parent then reads the objects back and reports them through
    ``on_cell`` — the store is the only communication channel, which is
    exactly the shape an SSH or container backend needs: replace
    ``subprocess.Popen`` with a remote spawn and nothing else changes.

    Telemetry is a wall-clock side channel the store deliberately does not
    carry, so cells executed by this backend report zero wall time (like
    store hits).
    """

    name = "subprocess"
    description = "shards cells to 'runner worker' child processes via the campaign store"

    def run_cells(
        self,
        pending: PendingCells,
        campaign_seed: int,
        workers: int,
        on_cell: OnCell,
        store: Optional[CampaignStore] = None,
    ) -> None:
        """Spawn one child per shard, wait, then read results from the store."""
        owned_tmp: Optional[tempfile.TemporaryDirectory] = None
        if store is None:
            # No shared store supplied: communicate through an ephemeral one.
            owned_tmp = tempfile.TemporaryDirectory(prefix="repro-shard-store-")
            store = CampaignStore(owned_tmp.name)
        try:
            self._run_shards(pending, campaign_seed, workers, store)
            for index, spec in pending:
                config_hash = spec.config_hash(campaign_seed)
                entry = store.get_cell(config_hash)
                if entry is None:
                    raise RuntimeError(
                        f"worker shard completed but cell {spec.key!r} "
                        f"({config_hash}) is missing from store {store.root!r}"
                    )
                result = entry["result"]
                on_cell(
                    index,
                    {
                        "result": result,
                        "telemetry": {
                            "wall_time_s": 0.0,
                            "sim_events": int(result.get("events_processed", 0)),
                            "events_per_s": 0.0,
                        },
                    },
                )
        finally:
            if owned_tmp is not None:
                owned_tmp.cleanup()

    def _run_shards(
        self, pending: PendingCells, campaign_seed: int, workers: int, store: CampaignStore
    ) -> None:
        """Write shard plans, spawn children, and wait for all of them."""
        import subprocess

        shard_count = max(1, min(workers, len(pending)))
        shards: list[list[CellSpec]] = [[] for _ in range(shard_count)]
        for position, (_, spec) in enumerate(pending):
            shards[position % shard_count].append(spec)

        plans_dir = os.path.join(store.root, "plans")
        os.makedirs(plans_dir, exist_ok=True)
        plan_paths: list[str] = []
        children: list[subprocess.Popen] = []
        try:
            for shard_index, shard in enumerate(shards):
                fd, plan_path = tempfile.mkstemp(
                    dir=plans_dir, prefix=f"shard{shard_index}-", suffix=".json"
                )
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(shard_plan(campaign_seed, shard), handle, sort_keys=True)
                plan_paths.append(plan_path)
            command_prefix = [
                sys.executable, "-m", "repro.experiments.runner", "worker",
                "--store", store.root, "--plan",
            ]
            for plan_path in plan_paths:
                try:
                    children.append(
                        subprocess.Popen(
                            command_prefix + [plan_path],
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE,
                            text=True,
                            env=_worker_environment(),
                        )
                    )
                except OSError as error:
                    raise PoolUnavailableError(
                        f"cannot spawn worker subprocess: {error}"
                    ) from error
            failures = []
            for child in children:
                _, stderr = child.communicate()
                if child.returncode != 0:
                    tail = "\n".join(stderr.strip().splitlines()[-5:])
                    failures.append(f"worker exited {child.returncode}: {tail}")
            if failures:
                # A failing cell inside a child is a cell error, not a
                # missing vehicle — abort the campaign like every backend.
                raise RuntimeError("; ".join(failures))
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                    child.wait()
            for plan_path in plan_paths:
                try:
                    os.unlink(plan_path)
                except OSError:
                    pass


def _worker_environment() -> dict:
    """The child environment, with this ``repro`` package importable."""
    import repro

    # ``repro`` may be a namespace package (no __init__.py), in which case
    # __file__ is None; __path__ always names the package directory.
    package_dir = (
        os.path.dirname(repro.__file__)
        if getattr(repro, "__file__", None)
        else next(iter(repro.__path__))
    )
    source_root = os.path.dirname(os.path.abspath(package_dir))
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH", "")
    paths = existing.split(os.pathsep) if existing else []
    if source_root not in paths:
        environment["PYTHONPATH"] = os.pathsep.join([source_root] + paths)
    return environment


def shard_plan(campaign_seed: int, specs: Sequence[CellSpec]) -> dict:
    """The shard-plan payload handed to one ``runner worker`` child."""
    return {
        "worker_format_version": WORKER_FORMAT_VERSION,
        "campaign_seed": int(campaign_seed),
        "cells": [spec.as_dict() for spec in specs],
    }


def run_worker_shard(plan_path: str, store_root: str) -> dict:
    """Execute one shard plan against a store (the ``runner worker`` body).

    For each cell in the plan: skip it if the store already holds a valid
    object (resume/idempotence), otherwise run it and commit the object.
    Returns ``{"cells", "ran", "skipped"}`` counts.  Cell exceptions
    propagate — the parent backend reads the non-zero exit as a campaign
    abort.
    """
    from repro.sweep.cells import run_cell

    with open(plan_path, "r", encoding="utf-8") as handle:
        plan = json.load(handle)
    version = plan.get("worker_format_version")
    if version != WORKER_FORMAT_VERSION:
        raise ValueError(
            f"unsupported worker plan format version {version!r} "
            f"(expected {WORKER_FORMAT_VERSION})"
        )
    campaign_seed = int(plan["campaign_seed"])
    store = CampaignStore(store_root)
    ran = skipped = 0
    for spec_dict in plan["cells"]:
        spec = CellSpec.from_dict(spec_dict)
        config_hash = spec.config_hash(campaign_seed)
        if store.has_cell(config_hash):
            skipped += 1
            continue
        result = run_cell(spec.as_dict(), campaign_seed)
        store.put_cell(
            config_hash,
            {
                "spec": spec.as_dict(),
                "campaign_seed": campaign_seed,
                "result": result,
            },
        )
        ran += 1
    return {"cells": len(plan["cells"]), "ran": ran, "skipped": skipped}


#: The backend registry (``sweep --backend`` / ``runner list``).
BACKENDS: dict[str, type[ExecutionBackend]] = {
    backend.name: backend
    for backend in (SerialBackend, ProcessPoolBackend, SubprocessShardBackend)
}


def usable_cpus() -> int:
    """The CPUs this process may run on (``runner``'s ``--workers`` default).

    The affinity mask where the platform has one (a container or
    ``taskset`` limit is what counts), else the machine's CPU count.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_backend(
    backend: Union[str, ExecutionBackend, None], workers: int
) -> ExecutionBackend:
    """Turn a backend name/instance/``None`` into a backend instance.

    ``None`` and ``"auto"`` preserve the engine's historical rule: a
    process pool when more than one worker is asked for, serial otherwise.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None or backend == "auto":
        return ProcessPoolBackend() if workers > 1 else SerialBackend()
    if isinstance(backend, str):
        try:
            return BACKENDS[backend]()
        except KeyError:
            raise ValueError(
                f"unknown execution backend {backend!r} (have {sorted(BACKENDS)} and 'auto')"
            ) from None
    raise TypeError(
        f"backend must be a name, an ExecutionBackend, or None, got {type(backend).__name__}"
    )
