"""The documentation gates.

Docs drift silently: a new subcommand lands without a reference entry,
a public module loses its docstring in a refactor.  These tests make the
documentation surfaces (and two source-wide rules) part of the test contract:

1. ``docs/CLI.md`` must cover every subcommand registered on the actual
   argparse parser (read from ``build_parser()``, not a hand-kept list),
   and each section's option table must list exactly the ``--flags`` that
   subcommand accepts — a removed flag left behind in the docs fails.
2. Names this repo deleted on purpose (the flat cell cache and its
   flags, the cells/s benchmark stack that ``bench/`` replaced, the
   calendar-wheel event queue, the ``benchmarks/`` call wrappers, the
   one-line forwarders) must not creep back into the source, docs,
   examples, README or CI.
3. ``docs/ARCHITECTURE.md``'s message table must be, row for row, what the
   event and command classes of ``repro.core`` declare.
4. Read-only state is a plain attribute, not a property
   (``Simulator.now``, ``Interface.link``, ...): each may be assigned in
   ``src/repro/`` only as ``self.<name>`` by the class that owns it, and no
   property may merely return a private field.
5. Every module — and every public class and function — of the
   user-facing packages (``repro.workloads``, ``repro.sweep``,
   ``repro.faults``, ``repro.obs``) must carry a docstring.  The check is pure
   ``inspect`` so it runs anywhere the test suite runs; CI additionally
   runs ``interrogate`` over the whole tree.
"""

import argparse
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

from repro.experiments.runner import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"

#: The packages whose public surface the docstring gate covers.
DOCUMENTED_PACKAGES = (
    "repro.workloads", "repro.sweep", "repro.faults", "repro.obs", "repro.store",
)


def subparsers() -> dict[str, argparse.ArgumentParser]:
    """Every subcommand's parser on the real CLI, via argparse's public-ish
    choices mapping (no hand-maintained duplicate list to drift)."""
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("build_parser() registered no subparsers")


def registered_subcommands() -> list[str]:
    """Every subcommand name on the real parser, sorted."""
    return sorted(subparsers())


def accepted_flags(parser: argparse.ArgumentParser) -> set[str]:
    """The long options a subparser accepts (``--help`` aside)."""
    return {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def documented_flags(section: str) -> set[str]:
    """The long options in the first column of a section's option tables."""
    flags: set[str] = set()
    for line in section.splitlines():
        if line.startswith("|"):
            flags.update(re.findall(r"--[a-z][a-z-]*", line.split("|")[1]))
    return flags


def reference_sections() -> dict[str, str]:
    """``docs/CLI.md`` split into ``{subcommand: section text}``."""
    text = (DOCS / "CLI.md").read_text(encoding="utf-8")
    parts = re.split(r"^### `(\w+)`", text, flags=re.MULTILINE)
    return {
        name: re.split(r"^(?:## |---$)", body, flags=re.MULTILINE)[0]
        for name, body in zip(parts[1::2], parts[2::2])
    }


class TestCliReference:
    def test_reference_exists_and_is_linked_from_readme(self):
        assert (DOCS / "CLI.md").is_file()
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/CLI.md" in readme

    def test_every_subcommand_has_a_reference_section(self):
        """Each registered subcommand needs its own ``### `name` …``
        heading — a passing mention elsewhere does not count as docs."""
        text = (DOCS / "CLI.md").read_text(encoding="utf-8")
        headings = set(re.findall(r"^### `(\w+)`", text, flags=re.MULTILINE))
        missing = [name for name in registered_subcommands() if name not in headings]
        assert not missing, f"subcommands without a docs/CLI.md section: {missing}"

    def test_every_subcommand_has_a_worked_example(self):
        """Every section must contain at least one runnable invocation of
        its own subcommand inside a code block."""
        text = (DOCS / "CLI.md").read_text(encoding="utf-8")
        for name in registered_subcommands():
            pattern = rf"python -m repro\.experiments\.runner {name}\b"
            assert re.search(pattern, text), f"no worked example for {name!r}"

    def test_no_stale_sections(self):
        """A section for a subcommand that no longer exists is worse than a
        missing one — it documents a lie."""
        text = (DOCS / "CLI.md").read_text(encoding="utf-8")
        headings = re.findall(r"^### `(\w+)`", text, flags=re.MULTILINE)
        stale = [name for name in headings if name not in registered_subcommands()]
        assert not stale, f"docs/CLI.md documents unknown subcommands: {stale}"

    @pytest.mark.parametrize("name", registered_subcommands())
    def test_option_tables_match_the_parser(self, name):
        """Flag-level drift, both ways: every ``--flag`` the subparser
        accepts has a row in its section's option table, and every row
        names a flag the subparser really accepts."""
        accepted = accepted_flags(subparsers()[name])
        documented = documented_flags(reference_sections()[name])
        assert not accepted - documented, (
            f"{name}: flags missing from docs/CLI.md: {sorted(accepted - documented)}"
        )
        assert not documented - accepted, (
            f"{name}: docs/CLI.md documents flags the parser rejects: "
            f"{sorted(documented - accepted)}"
        )


class TestRemovedNamesStayRemoved:
    """There is one result store, one benchmark (``python -m bench``), one
    event queue and one test tree.  The flat cell cache with its flags and
    migrator, the cells/s benchmark module with its subcommand, baseline
    file, pytest options and example, the calendar wheel with its
    compaction-threshold parameter, the call-wrapper test directory with
    its plugin, four config fields nothing ever set, and the one-line
    forwarders (the stack's path-manager relays, the controller's subflow
    commands, ``Subflow.info``, ``stack_counters``, ``run_workload`` and the
    configs' ``with_overrides``) are gone, and so is everything the
    Figure 2c preset alone used (its run records, router lookup, ECMP path
    index and ``bind_local``); nothing shipped or documented may mention
    them."""

    REMOVED = ("cache_dir", "--cache-dir", "--from-cache", "CellCache",
               "migrate_legacy_cache",
               "repro.bench", "runner bench", "BENCH_workloads",
               "--workloads-bench-tolerance", "--workloads-bench-ratio-tolerance",
               "--update-workloads-baseline", "bench_workloads.py",
               "_WHEEL_BUCKETS", "_rebuild_window", "auto_compact_threshold",
               "pytest-benchmark", "benchmarks/test_bench",
               "delayed_ack", "reinject_on_timeout", "reinject_on_close", "announce_addresses",
               "DualHomedScenario", "EcmpScenario", "LanScenario", "MiddleboxPathScenario",
               "NattedScenario", "StrippedAddAddrScenario", "StrippedMpCapableScenario",
               "FaultedScenario", "scenario_cls",
               "notify_connection_created", "notify_connection_established",
               "notify_subflow_established", "notify_subflow_closed", "notify_rto_timeout",
               "notify_add_addr", "notify_rem_addr", "self.create_subflow(",
               "self.remove_subflow(", "flow.info()", "stack_counters", "run_workload",
               "with_overrides",
               "allow_fallback", "format_comparison_table", "register_faulted_variant",
               "clock_granularity", "max_reestablish_attempts", "DEFAULT_BACKOFFS",
               "min_rate_ratio", "check_offset", "command_processing",
               "initial_ssthresh_bytes", "pacing_ss_factor", "pacing_ca_factor",
               "receive_window", "baseline_horizon", "interface_flap_at",
               "degrade_loss_percent", "fault_seed", "max_evaluations", "failure_floor",
               "_cell_key", "path_delays_ms",
               "_calibrated_client", "_run_variant", "include_baseline",
               "_run_kernel_backup_baseline",
               "_distinct_paths", "RunRecord", "bind_local", "_connect_kwargs",
               "path_index")

    def test_no_removed_name_in_source_docs_examples_or_ci(self):
        files = [REPO_ROOT / ".github" / "workflows" / "ci.yml", REPO_ROOT / "README.md"]
        for directory in ("src", "docs", "examples"):
            files.extend(
                path for path in (REPO_ROOT / directory).rglob("*")
                if path.suffix in (".py", ".md")
            )
        offenders = [
            f"{path.relative_to(REPO_ROOT)}: {name}"
            for path in files
            for text in [path.read_text(encoding="utf-8")]
            for name in self.REMOVED
            if name in text
        ]
        assert not offenders, f"removed names are back: {offenders}"


class TestOwnersAreTheOnlyWriters:
    """Read-only state is a plain attribute, not a property
    (docs/ARCHITECTURE.md, *Segment path*), so nothing but this walk stops a
    stray write: an attribute of one of these names may be assigned
    anywhere in ``src/repro/`` only as ``self.<name>``, and its owner (or a
    subclass of it) must be the class doing so.  None may become a property
    again, and no new property may merely return a private field."""

    #: "module:Class" -> the read-only attributes that class owns.
    OWNERS = {
        "analysis/cdf.py:Cdf": "samples",
        "core/controllers/backup.py:SmartBackupController": "rto_threshold",
        "core/controllers/ndiffports.py:UserspaceNdiffportsController": "subflow_count",
        "core/library.py:PathManagerLibrary": "channel name",
        "core/manager.py:SmappManager": "name host",
        "core/netlink.py:NetlinkChannel": "name sim",
        "faults/inject.py:FaultInjector": "plan",
        "faults/models.py:MutationEngine": "label",
        "mptcp/connection.py:MptcpConnection": (
            "stack listener subflows live_subflows data_una data_next bytes_received bytes_sent"
        ),
        "mptcp/path_manager.py:NdiffportsPathManager": "subflow_count",
        "mptcp/stack.py:MptcpStack": (
            "sim host name mptcp_config path_manager connections fallback_connections"
        ),
        "mptcp/subflow.py:Subflow": "socket is_initial is_usable",
        "net/host.py:Host": "stack",
        "net/interface.py:Interface": "node name address link is_up full_name",
        "net/link.py:Link": "name sim rate_bps delay loss_rate",
        "net/middlebox.py:NatFirewall": "idle_timeout",
        "net/middlebox.py:OptionStrippingMiddlebox": "strip_options strip_from",
        "net/node.py:Node": "sim name interfaces",
        "net/tracer.py:PacketTracer": "name",
        "netem/topology.py:Topology": "sim name hosts routers links middleboxes",
        "obs/events.py:EventLog": "limit",
        "sim/engine.py:Simulator": "now processed_events",
        "sim/latency.py:ShiftedLatency": "base shift",
        "sim/randomness.py:RandomSource": "seed",
        "sim/timers.py:Timer": "name expiry armed",
        "sim/timers.py:PeriodicTimer": "interval running ticks",
        "store/campaign.py:CampaignStore": "root",
        "tcp/buffers.py:RetransmissionQueue": "segments",
        "tcp/buffers.py:ReceiveReassembly": "rcv_nxt duplicate_bytes buffered",
        "tcp/congestion.py:CongestionControl": "cwnd mss ssthresh",
        "tcp/congestion.py:CouplingGroup": "members",
        "tcp/congestion.py:LiaCongestionControl": "group smoothed_rtt",
        "tcp/rtt.py:RttEstimator": "srtt rttvar min_rtt samples backoff_exponent rto",
        "tcp/socket.py:TcpSocket": (
            "sim name config local_address remote_address local_port remote_port send_space"
        ),
    }

    #: The properties that do return a private field: an immutable, hashed
    #: value type, and the event engine's bookkeeping, which each of its
    #: two classes writes on the other's behalf.
    KEPT_PROPERTIES = {
        "net/addressing.py:IPAddress.value",
        "sim/engine.py:ScheduledEvent.cancelled",
        "sim/engine.py:ScheduledEvent.executed",
        "sim/engine.py:Simulator.pending_events",
    }

    @classmethod
    def _owners(cls) -> dict[str, list[type]]:
        """Attribute name -> the classes that own it."""
        owners: dict[str, list[type]] = {}
        for qualified, names in cls.OWNERS.items():
            path, class_name = qualified.split(":")
            module = importlib.import_module("repro." + path[:-len(".py")].replace("/", "."))
            for name in names.split():
                owners.setdefault(name, []).append(getattr(module, class_name))
        return owners

    @staticmethod
    def _assignments(tree: ast.AST, class_name=None):
        """``(enclosing class name, target)`` for every attribute stored to."""
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, ast.ClassDef):
                yield from TestOwnersAreTheOnlyWriters._assignments(node, node.name)
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                targets = []
            for target in targets:
                for leaf in ast.walk(target):
                    # Store context: ``a.socket.x = 1`` reads ``socket``.
                    if isinstance(leaf, ast.Attribute) and isinstance(leaf.ctx, ast.Store):
                        yield class_name, leaf
            yield from TestOwnersAreTheOnlyWriters._assignments(node, class_name)

    def test_only_the_owner_assigns_and_only_through_self(self):
        owners = self._owners()
        package = REPO_ROOT / "src" / "repro"
        offenders = []
        seen = set()
        for path in sorted(package.rglob("*.py")):
            relative = path.relative_to(package).as_posix()
            module_name = "repro." + relative[:-len(".py")].replace("/", ".")
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for class_name, target in self._assignments(tree):
                if target.attr not in owners:
                    continue
                if not (isinstance(target.value, ast.Name) and target.value.id == "self"):
                    offenders.append(f"{relative}:{target.lineno} assigns {ast.unparse(target)}")
                    continue
                for owner in owners[target.attr]:
                    if owner.__module__ != module_name:
                        continue
                    cls = getattr(importlib.import_module(module_name), class_name or "", None)
                    if isinstance(cls, type) and issubclass(cls, owner):
                        seen.add((owner, target.attr))
        assert not offenders, f"only their owners may write these, as self.<name>: {offenders}"
        expected = {(owner, name) for name, classes in owners.items() for owner in classes}
        assert seen == expected, f"owners that never assign their attribute: {expected - seen}"

    @pytest.mark.parametrize(
        "name", sorted({name for names in OWNERS.values() for name in names.split()})
    )
    def test_they_are_attributes_not_properties(self, name):
        for owner in self._owners()[name]:
            assert not hasattr(owner, name), f"{owner.__name__}.{name} is a class attribute"

    def test_no_property_only_returns_a_private_field(self):
        package = REPO_ROOT / "src" / "repro"
        found = set()
        for path in sorted(package.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for function in cls.body:
                    if not isinstance(function, ast.FunctionDef) or not any(
                        isinstance(decorator, ast.Name) and decorator.id == "property"
                        for decorator in function.decorator_list
                    ):
                        continue
                    body = [
                        statement for statement in function.body
                        if not (isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant))
                    ]
                    returned = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
                    if (
                        isinstance(returned, ast.Attribute)
                        and isinstance(returned.value, ast.Name)
                        and returned.value.id == "self"
                        and returned.attr.startswith("_")
                    ):
                        found.add(f"{path.relative_to(package).as_posix()}:{cls.name}.{function.name}")
        assert found == self.KEPT_PROPERTIES


class TestArchitectureDoc:
    def test_architecture_doc_exists_and_is_linked_from_readme(self):
        assert (DOCS / "ARCHITECTURE.md").is_file()
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/ARCHITECTURE.md" in readme

    def test_subsystem_map_names_every_layer(self):
        text = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
        for package in ("repro.sim", "repro.net", "repro.tcp", "repro.mptcp",
                        "repro.workloads", "repro.sweep", "repro.faults",
                        "repro.analysis", "repro.obs", "repro.store"):
            assert f"`{package}`" in text, f"subsystem map is missing {package}"

    def test_message_table_is_the_declared_one(self):
        """*The control plane*'s two tables are the class attributes of
        ``core/events.py`` / ``core/commands.py``, both ways: a message
        without its row fails, and so does a row no class declares."""
        from repro.core.commands import COMMAND_CLASSES
        from repro.core.events import EVENT_CLASSES

        declared = {
            f"| {int(number)} | `{cls.__name__}` | `{cls.hook}` | `{cls.wire}` |"
            for number, cls in EVENT_CLASSES.items()
        } | {
            f"| {int(number)} | `{cls.__name__}` | `{cls.handler}` | `{cls.wire}` |"
            for number, cls in COMMAND_CLASSES.items()
        }
        text = (DOCS / "ARCHITECTURE.md").read_text(encoding="utf-8")
        section = text.split("## The control plane (`repro.core`)")[1].split("\n## ")[0]
        documented = {line for line in section.splitlines() if re.match(r"\| \d+ \|", line)}
        assert documented == declared


def _public_members(module) -> list[tuple[str, object]]:
    """The module's public classes and functions, honouring ``__all__``."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    members = []
    for name in names:
        obj = getattr(module, name, None)
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        # Re-exports of stdlib/third-party objects are not ours to document.
        if not getattr(obj, "__module__", "").startswith("repro"):
            continue
        members.append((name, obj))
    return members


def _package_modules(package_name: str) -> list[str]:
    package = importlib.import_module(package_name)
    names = [package_name]
    names.extend(
        f"{package_name}.{info.name}" for info in pkgutil.iter_modules(package.__path__)
    )
    return names


class TestDocstringCoverage:
    @pytest.mark.parametrize("package_name", DOCUMENTED_PACKAGES)
    def test_every_module_has_a_docstring(self, package_name):
        undocumented = [
            name for name in _package_modules(package_name)
            if not inspect.getdoc(importlib.import_module(name))
        ]
        assert not undocumented, f"modules without docstrings: {undocumented}"

    @pytest.mark.parametrize("package_name", DOCUMENTED_PACKAGES)
    def test_every_public_entry_point_has_a_docstring(self, package_name):
        undocumented = []
        for module_name in _package_modules(package_name):
            module = importlib.import_module(module_name)
            for name, obj in _public_members(module):
                if not inspect.getdoc(obj):
                    undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"public API without docstrings: {undocumented}"
