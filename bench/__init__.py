"""The repo benchmark: host cost of fixed simulated work, end to end and per layer.

``BENCHMARK.json`` at the repo root declares the workloads, the end-to-end
metrics with their regression bounds and the per-layer metrics; this
package measures them.  See ``bench/README.md`` for the workload table and
the interaction table (which layer metric should move which end-to-end
metric on which workload).

The package sits next to ``src/`` rather than inside it so a PR that
claims a gain can be checked for not having touched the instrument.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Mirrors tests/conftest.py: the program under test is importable without
# an install step, in this process and (via child_environment) its children.
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def declaration() -> dict:
    """The parsed ``BENCHMARK.json`` (names, units, directions, bounds)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def child_environment() -> dict:
    """The environment of every process the benchmark starts."""
    environment = dict(os.environ)
    existing = environment.get("PYTHONPATH", "")
    paths = [ROOT, SRC] + ([existing] if existing else [])
    environment["PYTHONPATH"] = os.pathsep.join(paths)
    return environment


def python_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``python <argv>`` from the checkout root and wait for it to end."""
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=child_environment(), cwd=ROOT,
    )
