"""Package exports that import their submodule on first access (PEP 562).

A package ``__init__`` that eagerly imports every submodule makes
``import repro.sweep.grid`` pay for the whole protocol stack, because
importing any submodule runs its package's ``__init__`` first.  The
packages on the CLI's start-up path therefore declare their public names
as one ``name -> module`` table and let :func:`lazy_exports` resolve each
name when it is first asked for; ``__all__``, ``dir()`` and ``from pkg
import *`` see the same names as an eager ``__init__`` would export.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a package exporting ``exports``.

    ``exports`` maps each public name to the module that defines it.  The
    resolved object is cached in the package namespace, so ``__getattr__``
    runs once per name.
    """
    namespace = vars(import_module(package))

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
