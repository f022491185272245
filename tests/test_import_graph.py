"""A ``runner`` process imports what its command runs.

Start-up cost here is proportional to the lines imported (the sandbox
never writes ``__pycache__``), so the guard is a count, not a timing: which
modules are in ``sys.modules`` after a command ran in a fresh interpreter.
Planning, store hits and reports must not load the protocol stack; a cold
run loads the implementations its cells resolve and no others.  The two
rules that keep it that way — a handler imports what it runs; registries
know names and ``registry[name]`` loads the implementation — are pinned
below through the lazy package ``__init__``s and the static registry
tables.
"""

import importlib
import inspect
import json
import subprocess
import sys

import pytest

from tests.helpers import child_env
from repro.experiments.grids import named_grid
from repro.sweep.engine import run_campaign

#: One module per layer of the protocol stack; none may load on a path
#: that runs no cell.
STACK = (
    "repro.tcp.socket",
    "repro.mptcp.connection",
    "repro.net.link",
    "repro.apps.bulk",
    "repro.core.controller",
    "repro.netem.scenarios",
)

#: The process-pool machinery; only a run with fresh cells on more than one
#: worker may load it.
POOL = ("concurrent.futures", "multiprocessing")

_CHILD = """
import contextlib, io, json, sys
from repro.experiments import runner
with contextlib.redirect_stdout(io.StringIO()) as out:
    try:
        code = runner.main(json.loads(sys.argv[1]))
    except SystemExit as exit:
        code = exit.code or 0
sys.stdout.write(json.dumps({"code": code, "out": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def modules_after(argv: list[str]) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``runner.main(argv)`` exited 0."""
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argv)],
        capture_output=True, text=True, timeout=120,
        env=child_env(),
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["code"] == 0, report["out"]
    return set(report["modules"])


@pytest.fixture(scope="module")
def full_store(tmp_path_factory) -> str:
    """A store holding every cell of the ``workloads`` grid."""
    store_dir = str(tmp_path_factory.mktemp("store"))
    run_campaign(named_grid("workloads"), store_dir=store_dir)
    return store_dir


class TestImportGraph:
    @pytest.mark.parametrize("command", [
        ["--help"],
        ["sweep", "--grid", "workloads", "--store", "{store}"],
        ["diff", "--baseline", "baselines/workloads.json", "--store", "{store}", "--from-store"],
        ["store", "verify", "--store", "{store}"],
    ], ids=lambda command: command[0])
    def test_paths_that_run_no_cell_load_no_protocol_stack(self, command, full_store):
        loaded = modules_after([word.format(store=full_store) for word in command])
        assert not loaded.intersection(STACK)
        # Nor a pool: the default worker count is capped at the pending cells.
        assert not loaded.intersection(POOL)

    def test_a_cold_run_loads_what_its_cells_resolve(self):
        """``scale`` is passive bulk transfers: the stack, but no userspace
        control plane and no fault machinery."""
        # One worker: the cells run in this process, whose imports are watched.
        loaded = modules_after(["sweep", "--grid", "scale", "--workers", "1"])
        assert {"repro.tcp.socket", "repro.apps.bulk", "repro.netem.scenarios"} <= loaded
        assert not {name for name in loaded if name.startswith(("repro.core", "repro.faults"))}


LAZY_PACKAGES = (
    "repro.sweep", "repro.experiments", "repro.workloads", "repro.analysis",
    "repro.mptcp", "repro.faults", "repro.sim", "repro.obs",
)


class TestLazyPackages:
    @pytest.mark.parametrize("package_name", LAZY_PACKAGES)
    def test_exports_are_the_submodule_objects(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__all__ and set(package.__all__) <= set(dir(package))
        for name in package.__all__:
            defining = importlib.import_module(package._EXPORTS[name])
            assert getattr(package, name) is getattr(defining, name), name
        starred: dict = {}
        exec(f"from {package_name} import *", starred)
        assert set(package.__all__) <= set(starred)

    @pytest.mark.parametrize("package_name", LAZY_PACKAGES)
    def test_an_unknown_name_is_an_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            package.no_such_name


class TestRegistryNames:
    """The static tables against the implementations: every name resolves,
    and nothing implemented is missing from its table."""

    def test_scenarios(self):
        from repro.faults import catalog
        from repro.netem import scenarios
        from repro.workloads.registry import FAULTED_SCENARIOS, SCENARIOS

        assert sorted(SCENARIOS) == [
            "addaddr_stripped", "asymmetric_loss", "bufferbloat_cellular", "dual_homed",
            "ecmp", "faulted_downgrade", "faulted_dual_homed", "faulted_lan",
            "faulted_natted", "faulted_path", "lan", "mpcapable_stripped",
            "mpcapable_stripped_synack", "natted", "path_failure_recovery",
            "wifi_lte_handover",
        ]
        assert FAULTED_SCENARIOS == {
            "faulted_dual_homed": "dual_homed", "faulted_lan": "lan",
            "faulted_natted": "natted", "faulted_path": "dual_homed",
            "faulted_downgrade": "dual_homed", "mpcapable_stripped": "dual_homed",
            "mpcapable_stripped_synack": "dual_homed",
        }
        assert catalog.FAULTED_SCENARIOS is FAULTED_SCENARIOS
        builders = {
            builder
            for module in (scenarios, catalog)
            for name, builder in vars(module).items()
            if name.startswith("build_") and builder.__module__ == module.__name__
        }
        # The one shared helper: a middlebox path still needs its middlebox.
        builders.discard(scenarios.build_middlebox_path)
        builders |= {catalog.build_faulted_dual_homed, catalog.build_faulted_lan,
                     catalog.build_faulted_natted}
        assert {SCENARIOS[name] for name in SCENARIOS} == builders

    def test_controllers(self):
        from repro.workloads import kernel_clients, smapp_clients
        from repro.workloads.registry import CONTROLLERS

        assert sorted(CONTROLLERS) == [
            "fullmesh", "ndiffports", "passive", "refresh", "smart_backup",
            "userspace_fullmesh", "userspace_ndiffports",
        ]
        for module in (kernel_clients, smapp_clients):
            for name, setup in inspect.getmembers(module, inspect.isfunction):
                if setup.__module__ == module.__name__:
                    assert CONTROLLERS[name] is setup

    def test_workloads(self):
        from repro.workloads import catalog
        from repro.workloads.base import Workload
        from repro.workloads.registry import WORKLOADS

        assert sorted(WORKLOADS) == ["bulk_transfer", "http", "longlived", "streaming"]
        instances = [value for value in vars(catalog).values() if isinstance(value, Workload)]
        assert {workload.name: workload for workload in instances} == dict(WORKLOADS)

    def test_schedulers(self):
        from repro.mptcp import scheduler

        assert sorted(scheduler.SCHEDULER_REGISTRY) == ["lowest_rtt", "redundant", "round_robin"]
        concrete = {
            cls for _, cls in inspect.getmembers(scheduler, inspect.isclass)
            if issubclass(cls, scheduler.Scheduler) and not inspect.isabstract(cls)
        }
        assert set(scheduler.SCHEDULER_REGISTRY.values()) == concrete

    def test_registration_still_rejects_duplicates(self):
        from repro.workloads.registry import (
            CONTROLLERS,
            SCENARIOS,
            WORKLOADS,
            register_controller,
            register_scenario,
            register_workload,
        )

        with pytest.raises(ValueError, match="scenario 'dual_homed' is already registered"):
            register_scenario("dual_homed", lambda sim: None)
        with pytest.raises(ValueError, match="controller 'passive' is already registered"):
            register_controller("passive", lambda ctx: None)
        with pytest.raises(ValueError, match="workload 'http' is already registered"):
            register_workload(WORKLOADS["http"])
        assert len(SCENARIOS) == 16 and len(CONTROLLERS) == 7 and len(WORKLOADS) == 4
