"""Per-connection state is slotted (docs/ARCHITECTURE.md, *Per-connection
state is slotted*).

CPython shares one key table among the instance dicts of a class, and keeps
the values inline, only while the class assigns at most 30 attribute names;
past that every instance carries a dict of its own (about 1.6 kB).  So a
class that assigns more names than that declares ``__slots__``, and every
``__slots__`` in ``src/repro`` names exactly what its class assigns: a name
left out fails at the first assignment, but a stale one costs a pointer per
instance and reads as state that no longer exists.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from tests.helpers import build_dual_homed_rig
from repro.mptcp.path_manager import FullMeshPathManager

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

#: CPython's limit on the attribute names of a class whose instance dicts
#: share their keys and keep values inline.
SHARED_KEYS_LIMIT = 30


def _classes():
    """``(module name, class node)`` for every top-level class in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE.parent).with_suffix("")
        module_name = ".".join(relative.parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                yield module_name, node


def _walk_methods(cls: ast.ClassDef):
    """Every node of ``cls`` outside nested classes (closures included)."""
    stack = list(ast.iter_child_nodes(cls))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _assigned_names(cls: ast.ClassDef) -> set[str]:
    """The ``self.<name>`` attributes the class stores to."""
    return {
        node.attr
        for node in _walk_methods(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _explicit_slots(cls: ast.ClassDef):
    """The literal ``__slots__`` of the class body, or ``None``."""
    for statement in cls.body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in statement.targets
        ):
            return ast.literal_eval(statement.value)
    return None


def _inherited_slots(module_name: str, class_name: str) -> set[str]:
    cls = getattr(importlib.import_module(module_name), class_name)
    return {name for base in cls.__mro__[1:] for name in base.__dict__.get("__slots__", ())}


class TestSlotsMatchTheAssignedNames:
    def test_a_class_past_the_shared_keys_limit_declares_slots(self):
        unslotted = sorted(
            f"{module_name}.{cls.name} ({len(names)} names)"
            for module_name, cls in _classes()
            if len(names := _assigned_names(cls)) > SHARED_KEYS_LIMIT
            and _explicit_slots(cls) is None
        )
        assert not unslotted, f"assign more than {SHARED_KEYS_LIMIT} names without __slots__: {unslotted}"

    def test_every_slots_declaration_names_exactly_what_its_class_assigns(self):
        mismatched = []
        checked = 0
        for module_name, cls in _classes():
            slots = _explicit_slots(cls)
            if slots is None:
                continue
            checked += 1
            expected = _assigned_names(cls) - _inherited_slots(module_name, cls.name)
            if sorted(slots) != sorted(expected):
                mismatched.append(
                    f"{module_name}.{cls.name}: missing {sorted(expected - set(slots))}, "
                    f"stale {sorted(set(slots) - expected)}, {len(slots)} declared"
                )
        assert checked, "found no __slots__ declaration"
        assert not mismatched, mismatched


class TestLiveConnectionEndsHaveNoDict:
    """A base class without ``__slots__`` gives every instance a dict again,
    which the static walk above cannot see."""

    def test_connections_and_their_sockets_have_no_dict(self):
        rig = build_dual_homed_rig(client_pm=FullMeshPathManager(), expected_bytes=2_000_000)
        rig.connect_bulk(2_000_000)
        rig.sim.run(until=0.5)
        connections = rig.client_stack.connections + rig.server_stack.connections
        assert len(connections) == 2
        objects = []
        for conn in connections:
            assert len(conn.subflows) == 4
            objects += [conn, conn._meta_rtx_timer, conn._data_fin_timer, conn._data_reassembly]
            for subflow in conn.subflows:
                sock = subflow.socket
                objects += [
                    subflow, sock, sock.rtt, sock.congestion, sock.congestion.group,
                    sock._rtx_queue, sock._reassembly, sock._rto_timer, sock._syn_timer,
                ]
        with_dict = sorted({type(obj).__qualname__ for obj in objects if hasattr(obj, "__dict__")})
        assert not with_dict, f"instances that carry a __dict__: {with_dict}"
